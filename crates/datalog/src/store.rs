//! Relation storage for the engine: interned predicate tables and **layered
//! copy-on-write relation stores**.
//!
//! # Store layering
//!
//! A [`RelationStore`] is either *flat* (the classic single-layer store: one
//! append-only tuple vector plus a membership set per predicate) or an
//! *overlay* over a frozen, `Arc`-shared [`BaseStore`]:
//!
//! * the **base** holds the tuples of a shared EDB prefix, loaded and frozen
//!   once ([`edb_base_from_instance`]), together with its *committed*
//!   `(predicate, bound-mask)` hash indexes — built lazily at most once per
//!   base and then shared read-only by every run over it;
//! * the **overlay** holds only what one run adds on top: per-request delta
//!   facts ([`edb_overlay_on`]) and everything the engine derives. Forking an
//!   overlay is O(number of predicates), not O(database).
//!
//! Tuple ids — the currency of the engine's indexes and semi-naive delta
//! ranges — are positions in the *concatenation* base-then-overlay, exposed
//! as the two-segment [`Tuples`] view. A flat store is simply the
//! empty-base case: every view degenerates to plain slice access, so the
//! single-layer engine paths are unchanged (and evaluation stays
//! bit-identical to the pre-layering engine).
//!
//! Duplicate suppression spans layers: inserting a tuple the base already
//! holds is a no-op, so `base ∪ overlay` is a genuine set and
//! [`RelationStore::len_of`] is its cardinality. The generation watermark of
//! an overlay starts at the base's, so the derived-tuple counts taken from
//! its growth stay monotone across the seam.
//!
//! # Columnar mirrors
//!
//! Unary and binary relations — the entire Lemma 14 fragment — additionally
//! maintain flat `u32` column mirrors of their tuple vectors (raw
//! [`Symbol::id`]s, appended on every insert) plus a bitset over symbol ids
//! for unary membership. The specialized kernels of [`crate::kernel`] scan
//! and probe these mirrors instead of boxed tuples; the generic engine paths
//! never look at them. Base layers freeze their columns with the rest of the
//! relation, and [`BaseStore`] caches committed CSR adjacency
//! ([`CsrIndex`]) per `(predicate, key column)` exactly like its committed
//! hash indexes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cqa_core::symbol::Symbol;
use cqa_db::instance::DatabaseInstance;

use crate::ast::Predicate;
use crate::engine::EngineError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::tuple::Tuple;

/// A dense predicate id, assigned by a [`PredTable`] in interning order.
///
/// Ids are scoped to the table that produced them: a
/// [`crate::engine::CompiledProgram`] and a [`RelationStore`] each intern
/// independently, and the evaluator translates between the two with a
/// per-run array. An overlay store *clones* its base's table, so base ids
/// remain valid store ids in every fork.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub(crate) u32);

impl PredId {
    /// The id as a dense vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interner of [`Predicate`]s into dense [`PredId`]s.
#[derive(Debug, Clone, Default)]
pub struct PredTable {
    ids: HashMap<Predicate, PredId>,
    preds: Vec<Predicate>,
}

impl PredTable {
    /// Interns a predicate, assigning the next dense id on first sight.
    pub(crate) fn intern(&mut self, pred: Predicate) -> PredId {
        if let Some(&id) = self.ids.get(&pred) {
            return id;
        }
        let id = PredId(self.preds.len() as u32);
        self.preds.push(pred);
        self.ids.insert(pred, id);
        id
    }

    /// The id of a predicate, if it has been interned.
    pub fn lookup(&self, pred: Predicate) -> Option<PredId> {
        self.ids.get(&pred).copied()
    }

    /// The predicate with the given id.
    pub fn predicate(&self, id: PredId) -> Predicate {
        self.preds[id.index()]
    }

    /// Number of interned predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Iterates over `(id, predicate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PredId, Predicate)> + '_ {
        self.preds
            .iter()
            .enumerate()
            .map(|(i, &p)| (PredId(i as u32), p))
    }
}

/// A growable bitset over raw [`Symbol::id`]s, giving unary relations O(1)
/// membership without hashing. Word storage grows to the highest id seen, so
/// memory is bounded by the interner size (a few KiB for CQA workloads).
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Sets the bit; returns true iff it was previously clear (test-and-set,
    /// so unary relations get membership and dedup from the same word probe).
    fn insert(&mut self, id: u32) -> bool {
        let word = (id / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (id % 64);
        let novel = self.words[word] & bit == 0;
        self.words[word] |= bit;
        novel
    }

    /// True iff the id is in the set.
    #[inline]
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Clears the bit; returns true iff it was previously set. The removal
    /// mirror of [`BitSet::insert`], used only by the differential
    /// maintenance passes on flat maintained stores.
    fn remove(&mut self, id: u32) -> bool {
        let Some(word) = self.words.get_mut((id / 64) as usize) else {
            return false;
        };
        let bit = 1u64 << (id % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }
}

/// Flat `u32` mirrors of a relation's tuple vector, maintained eagerly on
/// insert for arities 1 and 2 (other arities leave the mirrors empty and are
/// never kernel-eligible). Column `i` of tuple id `t` is `c<i>[t]`; unary
/// relations additionally mirror membership into a [`BitSet`].
#[derive(Debug, Clone, Default)]
struct ColumnMirror {
    c0: Vec<u32>,
    c1: Vec<u32>,
    bits: BitSet,
}

impl ColumnMirror {
    /// Appends the tuple's columns (membership is the caller's problem: the
    /// unary bitset doubles as the membership structure, so [`Relation`]
    /// probes it *before* deciding to push).
    #[inline]
    fn push(&mut self, tuple: &Tuple) {
        match tuple.as_slice() {
            [a] => self.c0.push(a.id()),
            [a, b] => {
                self.c0.push(a.id());
                self.c1.push(b.id());
            }
            _ => {}
        }
    }
}

/// Packs a binary tuple into one machine word, so binary relations (the bulk
/// of every CQA workload) dedup through a `FxHashSet<u64>` — one multiply
/// and a word compare per probe — instead of hashing a 32-byte [`Tuple`].
#[inline]
fn pack_pair(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// One predicate's tuples: a dense append-only vector (indexes and deltas
/// address tuples by position in it), shape-routed membership, and the
/// columnar mirror the specialized kernels read.
///
/// Membership is columnar for the kernel fragment: arity 1 tests the mirror's
/// [`BitSet`], arity 2 a packed-`u64` set ([`pack_pair`]); only arity ≥ 3
/// falls back to hashing whole [`Tuple`]s. Insert-side dedup is the dominant
/// shared cost of a fixpoint round, so this routing speeds both execution
/// cores — it is what makes the (u32, u32) store "columnar" end to end
/// rather than only on the scan side.
#[derive(Debug, Clone, Default)]
struct Relation {
    tuples: Vec<Tuple>,
    /// Membership for arity ≥ 3 only; empty otherwise.
    set: FxHashSet<Tuple>,
    /// Membership for arity 2 only ([`pack_pair`] keys); empty otherwise.
    pairs: FxHashSet<u64>,
    cols: ColumnMirror,
}

impl Relation {
    /// True iff the tuple is present, probing the shape-matched structure.
    #[inline]
    fn contains(&self, tuple: &[Symbol]) -> bool {
        match tuple {
            [a] => self.cols.bits.contains(a.id()),
            [a, b] => self.pairs.contains(&pack_pair(a.id(), b.id())),
            _ => self.set.contains(tuple),
        }
    }

    fn insert(&mut self, tuple: Tuple) -> bool {
        // Single membership probe per insert; only the arity ≥ 3 fallback
        // hashes (and clones) the tuple itself.
        let novel = match tuple.as_slice() {
            [a] => self.cols.bits.insert(a.id()),
            [a, b] => self.pairs.insert(pack_pair(a.id(), b.id())),
            _ => self.set.insert(tuple.clone()),
        };
        if novel {
            self.cols.push(&tuple);
            self.tuples.push(tuple);
        }
        novel
    }

    /// Removes a tuple, keeping the membership structure and the columnar
    /// mirrors consistent with the tuple vector; returns true iff it was
    /// present. The vacated position is back-filled with the last tuple
    /// (`swap_remove`), so tuple ids are **not** stable across removals —
    /// only the flat maintained stores of [`crate::maintain`] ever remove,
    /// and they never feed the id-addressed engine paths (semi-naive delta
    /// ranges, [`crate::plan::IndexSpace`], kernels).
    fn remove(&mut self, tuple: &[Symbol]) -> bool {
        let present = match tuple {
            [a] => self.cols.bits.remove(a.id()),
            [a, b] => self.pairs.remove(&pack_pair(a.id(), b.id())),
            _ => self.set.remove(tuple),
        };
        if present {
            let pos = self
                .tuples
                .iter()
                .position(|t| t.as_slice() == tuple)
                .expect("membership and tuple vector agree");
            self.tuples.swap_remove(pos);
            match tuple.len() {
                1 => {
                    self.cols.c0.swap_remove(pos);
                }
                2 => {
                    self.cols.c0.swap_remove(pos);
                    self.cols.c1.swap_remove(pos);
                }
                _ => {}
            }
        }
        present
    }
}

/// Projects `tuple` onto the positions of `mask` into `proj` (cleared
/// first). Committed base indexes and per-run overlay extensions share this
/// helper so both sides of a layered probe agree on the key shape.
///
/// The mask is a `u32`, so positions ≥ 32 (never seen in practice) are not
/// part of any probe key; the planner falls back to per-candidate checks for
/// them.
#[inline]
pub(crate) fn project_onto_mask(tuple: &Tuple, mask: u32, proj: &mut Tuple) {
    proj.clear();
    for pos in 0..tuple.len().min(32) {
        if mask & (1 << pos) != 0 {
            proj.push(tuple[pos]);
        }
    }
}

/// A committed hash index over one base relation for a `(predicate,
/// bound-mask)` pair: the projection of each base tuple onto the mask's
/// positions, mapped to the ascending ids of matching tuples. Built at most
/// once per [`BaseStore`] and then shared read-only (behind an `Arc`) by
/// every overlay run's [`crate::plan::IndexSpace`] slot that probes it.
#[derive(Debug, Default)]
pub(crate) struct BaseIndex {
    pub(crate) entries: FxHashMap<Tuple, Vec<u32>>,
}

impl BaseIndex {
    fn build(tuples: &[Tuple], mask: u32) -> BaseIndex {
        let mut entries: FxHashMap<Tuple, Vec<u32>> = FxHashMap::default();
        let mut proj = Tuple::new();
        for (id, tuple) in tuples.iter().enumerate() {
            project_onto_mask(tuple, mask, &mut proj);
            entries.entry(proj.clone()).or_default().push(id as u32);
        }
        BaseIndex { entries }
    }
}

/// CSR adjacency over one column segment of a binary relation: key value →
/// the other column's values, in ascending tuple-id order (so a layered
/// probe that walks the base bucket then the overlay bucket enumerates
/// candidates exactly like the generic hash index does).
///
/// Keys within `4·n + 1024` of each other are stored dense — a counting
/// sort into an offsets/values pair, O(1) bucket lookup with no hashing —
/// and wider key ranges fall back to a hash map so a single outlier id
/// cannot blow up memory.
#[derive(Debug)]
pub(crate) enum CsrIndex {
    /// Offsets are indexed by `key - min_key`; `offsets[i]..offsets[i + 1]`
    /// delimits the bucket in `vals`.
    Dense {
        min_key: u32,
        offsets: Vec<u32>,
        vals: Vec<u32>,
    },
    /// Sparse fallback for pathologically wide key ranges.
    Sparse(FxHashMap<u32, Vec<u32>>),
}

impl CsrIndex {
    /// Builds the adjacency from parallel key/value columns (equal length).
    pub(crate) fn build(keys: &[u32], vals: &[u32]) -> CsrIndex {
        debug_assert_eq!(keys.len(), vals.len());
        let n = keys.len();
        if n == 0 {
            return CsrIndex::Dense {
                min_key: 0,
                offsets: vec![0],
                vals: Vec::new(),
            };
        }
        let min_key = keys.iter().copied().min().expect("nonempty");
        let max_key = keys.iter().copied().max().expect("nonempty");
        let range = (max_key - min_key) as usize + 1;
        if range <= 4 * n + 1024 {
            let mut offsets = vec![0u32; range + 1];
            for &k in keys {
                offsets[(k - min_key) as usize + 1] += 1;
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
            let mut cursor = offsets.clone();
            let mut out = vec![0u32; n];
            // Ascending id order per bucket falls out of the stable pass.
            for (&k, &v) in keys.iter().zip(vals) {
                let slot = &mut cursor[(k - min_key) as usize];
                out[*slot as usize] = v;
                *slot += 1;
            }
            CsrIndex::Dense {
                min_key,
                offsets,
                vals: out,
            }
        } else {
            let mut map: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            for (&k, &v) in keys.iter().zip(vals) {
                map.entry(k).or_default().push(v);
            }
            CsrIndex::Sparse(map)
        }
    }

    /// The other-column values paired with `key` (ascending tuple-id order).
    #[inline]
    pub(crate) fn bucket(&self, key: u32) -> &[u32] {
        match self {
            CsrIndex::Dense {
                min_key,
                offsets,
                vals,
            } => {
                let Some(i) = key.checked_sub(*min_key).map(|d| d as usize) else {
                    return &[];
                };
                if i + 1 >= offsets.len() {
                    return &[];
                }
                &vals[offsets[i] as usize..offsets[i + 1] as usize]
            }
            CsrIndex::Sparse(map) => map.get(&key).map_or(&[], Vec::as_slice),
        }
    }
}

/// A frozen relation store, shared via `Arc` as the common bottom layer of
/// many overlay [`RelationStore`]s.
///
/// Freezing a flat store ([`BaseStore::freeze`]) makes its tuples immutable,
/// which buys two amortizations for family workloads (many runs extending
/// one shared EDB prefix):
///
/// * the prefix's tuples are loaded and deduplicated **once**, and every
///   fork ([`RelationStore::overlay_on`]) is O(number of predicates);
/// * the `(predicate, bound-mask)` indexes the runs probe are built **once**
///   per base ([`BaseStore`] caches them by `(pred, mask)`) instead of once
///   per run — [`crate::parallel::EvalStats::base_index_builds`] counts the
///   builds, and a regression test pins "once per family".
///
/// A base store is immutable except for its index cache, which is an
/// interior-mutability memo (a mutex is fine: each entry is built at most
/// once, after which every access is a clone of an `Arc`).
#[derive(Debug)]
pub struct BaseStore {
    preds: PredTable,
    relations: Vec<Relation>,
    generation: u64,
    /// Committed indexes, keyed by `(pred id, mask)`. Built under the lock,
    /// so concurrent first probes of one `(pred, mask)` still build exactly
    /// once (the loser of the race finds the entry).
    indexes: Mutex<HashMap<(u32, u32), Arc<BaseIndex>>>,
    /// Committed CSR adjacencies for the kernel path, keyed by `(pred id,
    /// key column)`; same build-once contract as `indexes`.
    csr: Mutex<HashMap<(u32, u8), Arc<CsrIndex>>>,
    /// Number of committed indexes actually built (cache misses), counting
    /// both hash indexes and CSR adjacencies.
    index_builds: AtomicU64,
    /// Checkpointed variants of this base: per compiled program (keyed by the
    /// caller — see [`BaseStore::checkpoint`]), a frozen copy of this base
    /// whose relations additionally hold the fixpoint of the program's
    /// checkpointable strata. Built at most once per key; same
    /// interior-mutability memo discipline as the index caches. Always empty
    /// on the variants themselves (they are keyed off the original base).
    checkpoints: Mutex<HashMap<usize, Arc<BaseStore>>>,
    /// Differentially maintained materialized-IDB slots living on this base,
    /// keyed by `(compiled-program address, request slot)` — see
    /// [`crate::maintain`] and [`BaseStore::maintained_slot`]. The map only
    /// hands out `Arc<MaintainedEntry>`s; the per-slot state mutex is taken
    /// *after* the map lock is released, so a long maintenance pass never
    /// blocks unrelated slots. Dropped with the base, so LRU eviction of a
    /// resident reclaims its maintained state along with everything else
    /// (the maintained stores are flat — they hold no `Arc` back to this
    /// base, so there is no cycle to leak through).
    maintained: Mutex<HashMap<(usize, usize), Arc<MaintainedEntry>>>,
}

/// One maintained-IDB slot on a [`BaseStore`]: the state under its own lock,
/// plus a relaxed tuple-count mirror so registry accounting
/// ([`BaseStore::maintained_tuples`]) never has to wait behind an in-flight
/// maintenance or bootstrap pass.
#[derive(Debug, Default)]
pub struct MaintainedEntry {
    /// The maintained state; `None` until the slot's first bootstrap. The
    /// holder of this lock updates `tuples` before releasing it.
    pub state: Mutex<Option<crate::maintain::MaintainedIdb>>,
    /// Total tuples currently held by this slot's maintained store, mirrored
    /// from `state` with relaxed ordering (accounting-only precision).
    pub tuples: AtomicU64,
}

impl BaseStore {
    /// Freezes a flat store into a shareable base layer.
    ///
    /// # Panics
    ///
    /// Panics if `store` is itself an overlay; freeze the flat store the
    /// overlay was forked from instead (re-freezing derived overlays is not
    /// a supported way to stack layers).
    pub fn freeze(store: RelationStore) -> Arc<BaseStore> {
        assert!(
            store.base.is_none(),
            "BaseStore::freeze expects a flat store, not an overlay"
        );
        Arc::new(BaseStore {
            preds: store.preds,
            relations: store.relations,
            generation: store.generation,
            indexes: Mutex::new(HashMap::new()),
            csr: Mutex::new(HashMap::new()),
            index_builds: AtomicU64::new(0),
            checkpoints: Mutex::new(HashMap::new()),
            maintained: Mutex::new(HashMap::new()),
        })
    }

    /// The maintained-IDB slot for `key` (one per `(compiled program,
    /// request slot)` pair — callers use the program's cache-stable address,
    /// like [`BaseStore::checkpoint`]), creating an empty entry on first
    /// request. Only the entry `Arc` is handed out under the map lock; the
    /// caller locks the entry's own state mutex afterwards, so two requests
    /// maintaining different slots never serialize on each other.
    pub fn maintained_slot(&self, key: (usize, usize)) -> Arc<MaintainedEntry> {
        let mut map = self.maintained.lock().expect("maintained map");
        Arc::clone(map.entry(key).or_default())
    }

    /// Total tuples currently held across this base's maintained-IDB slots —
    /// the memory-pressure contribution of differential maintenance, read by
    /// the server registry's LRU accounting. Sums the relaxed per-slot
    /// mirrors, so it never blocks behind an in-flight maintenance pass.
    pub fn maintained_tuples(&self) -> u64 {
        self.maintained
            .lock()
            .expect("maintained map")
            .values()
            .map(|entry| entry.tuples.load(Ordering::Relaxed))
            .sum()
    }

    /// A mutable flat copy of this base — same predicates, same tuples, same
    /// generation watermark. This is how a checkpointed variant is
    /// constructed: thaw, pre-derive the checkpointable strata into the copy,
    /// re-freeze ([`crate::engine::CompiledProgram::checkpoint_base`]).
    pub fn thaw(&self) -> RelationStore {
        RelationStore {
            preds: self.preds.clone(),
            base: None,
            relations: self.relations.clone(),
            generation: self.generation,
        }
    }

    /// The checkpointed variant of this base for `key` (one key per compiled
    /// program — callers use the program's cache-stable address), building it
    /// with `build` on first request. Concurrent first requests may both
    /// build; the first insertion wins and the loser's copy is dropped, so
    /// every later caller shares one variant (the build runs outside the
    /// lock — it evaluates a whole program and must not block index probes).
    pub fn checkpoint(
        &self,
        key: usize,
        build: impl FnOnce(&BaseStore) -> Arc<BaseStore>,
    ) -> Arc<BaseStore> {
        if let Some(cp) = self.checkpoints.lock().expect("checkpoint cache").get(&key) {
            return Arc::clone(cp);
        }
        let built = build(self);
        let mut cache = self.checkpoints.lock().expect("checkpoint cache");
        Arc::clone(cache.entry(key).or_insert(built))
    }

    /// The base's insertion watermark (the overlay forks start from it).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of committed `(pred, mask)` indexes built so far, including
    /// those of this base's checkpointed variants (checkpoint-resumed runs
    /// probe the variant's committed structures, so without the fold the
    /// original base would under-report — and the build-once regression pins
    /// would stop covering the resumed path). For a family of runs over one
    /// base this stops growing after the first run — the whole point of
    /// sharing the base.
    pub fn index_builds(&self) -> u64 {
        let own = self.index_builds.load(Ordering::Relaxed);
        let variants: u64 = self
            .checkpoints
            .lock()
            .expect("checkpoint cache")
            .values()
            .map(|cp| cp.index_builds())
            .sum();
        own + variants
    }

    /// The committed index for `(id, mask)`, building it on first request;
    /// the flag reports whether this call built it.
    pub(crate) fn committed_index(&self, id: PredId, mask: u32) -> (Arc<BaseIndex>, bool) {
        let mut cache = self.indexes.lock().expect("base index cache poisoned");
        match cache.entry((id.0, mask)) {
            std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                let built = Arc::new(BaseIndex::build(&self.relations[id.index()].tuples, mask));
                self.index_builds.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(e.insert(built)), true)
            }
        }
    }

    /// The committed CSR adjacency for `(id, key_col)` over a binary base
    /// relation, building it on first request; the flag reports whether this
    /// call built it. Built once per base, shared by every overlay run.
    pub(crate) fn committed_csr(&self, id: PredId, key_col: u8) -> (Arc<CsrIndex>, bool) {
        let mut cache = self.csr.lock().expect("base csr cache poisoned");
        match cache.entry((id.0, key_col)) {
            std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                let cols = &self.relations[id.index()].cols;
                let (keys, vals) = match key_col {
                    0 => (&cols.c0, &cols.c1),
                    _ => (&cols.c1, &cols.c0),
                };
                let built = Arc::new(CsrIndex::build(keys, vals));
                self.index_builds.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(e.insert(built)), true)
            }
        }
    }
}

/// The tuples of one predicate as a two-segment view: the frozen base
/// layer's slice followed by the overlay's. Tuple ids — the positions the
/// engine's indexes and semi-naive delta ranges speak — index the
/// concatenation. A flat store has an empty base segment, so every accessor
/// degenerates to plain slice access.
#[derive(Debug, Clone, Copy)]
pub struct Tuples<'a> {
    base: &'a [Tuple],
    delta: &'a [Tuple],
}

impl<'a> Tuples<'a> {
    fn empty() -> Tuples<'a> {
        Tuples {
            base: &[],
            delta: &[],
        }
    }

    /// Total number of tuples across both segments.
    #[inline]
    pub fn len(self) -> usize {
        self.base.len() + self.delta.len()
    }

    /// True iff both segments are empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.base.is_empty() && self.delta.is_empty()
    }

    /// The tuple with the given id.
    #[inline]
    pub fn get(self, id: usize) -> &'a Tuple {
        if id < self.base.len() {
            &self.base[id]
        } else {
            &self.delta[id - self.base.len()]
        }
    }

    /// Iterates base tuples first, then overlay tuples (ascending id order).
    pub fn iter(self) -> impl Iterator<Item = &'a Tuple> {
        self.base.iter().chain(self.delta.iter())
    }

    /// Length of the frozen base segment (0 for flat stores).
    #[inline]
    pub(crate) fn base_len(self) -> usize {
        self.base.len()
    }

    /// The overlay segment alone (ids `base_len()..len()`).
    #[inline]
    pub(crate) fn delta_slice(self) -> &'a [Tuple] {
        self.delta
    }

    /// The two sub-slices covering ids `lo..hi` (`lo <= hi <= len`), for
    /// scan loops that want tight per-slice iteration instead of a branchy
    /// chained iterator.
    #[inline]
    pub(crate) fn segments(self, lo: usize, hi: usize) -> (&'a [Tuple], &'a [Tuple]) {
        let b = self.base.len();
        (
            &self.base[lo.min(b)..hi.min(b)],
            &self.delta[lo.saturating_sub(b)..hi.saturating_sub(b)],
        )
    }
}

/// One layer's `(c0, c1)` column-slice pair.
pub(crate) type ColPair<'a> = (&'a [u32], &'a [u32]);

/// Two-segment view of a binary relation's `u32` column mirrors (base layer
/// then overlay), the kernel analogue of [`Tuples`]: column `c` of tuple id
/// `t` is the concatenation's `c<c>[t]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cols2<'a> {
    pub(crate) base0: &'a [u32],
    pub(crate) base1: &'a [u32],
    pub(crate) delta0: &'a [u32],
    pub(crate) delta1: &'a [u32],
}

impl<'a> Cols2<'a> {
    /// The column pairs covering ids `lo..hi`, split at the base/overlay
    /// seam: `((base c0, base c1), (overlay c0, overlay c1))`.
    #[inline]
    pub(crate) fn segments(self, lo: usize, hi: usize) -> (ColPair<'a>, ColPair<'a>) {
        let b = self.base0.len();
        let (blo, bhi) = (lo.min(b), hi.min(b));
        let (dlo, dhi) = (lo.saturating_sub(b), hi.saturating_sub(b));
        (
            (&self.base0[blo..bhi], &self.base1[blo..bhi]),
            (&self.delta0[dlo..dhi], &self.delta1[dlo..dhi]),
        )
    }
}

/// Two-segment view of a unary relation's column mirror plus the layered
/// membership bitsets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cols1<'a> {
    pub(crate) base: &'a [u32],
    pub(crate) delta: &'a [u32],
    base_bits: Option<&'a BitSet>,
    delta_bits: &'a BitSet,
}

impl<'a> Cols1<'a> {
    /// True iff the symbol id is in the relation (either layer).
    #[inline]
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.delta_bits.contains(id) || self.base_bits.is_some_and(|b| b.contains(id))
    }

    /// The column slices covering ids `lo..hi`, split at the seam.
    #[inline]
    pub(crate) fn segments(self, lo: usize, hi: usize) -> (&'a [u32], &'a [u32]) {
        let b = self.base.len();
        (
            &self.base[lo.min(b)..hi.min(b)],
            &self.delta[lo.saturating_sub(b)..hi.saturating_sub(b)],
        )
    }
}

/// A borrowed view of a unary relation: O(1) membership through the layered
/// hash sets and allocation-free iteration, replacing the `BTreeSet`
/// the old `RelationStore::unary` rebuilt on every call (a measurable cost
/// on the per-request CQA answer check).
#[derive(Debug, Clone, Copy)]
pub struct UnaryView<'a> {
    base: Option<&'a Relation>,
    delta: Option<&'a Relation>,
}

impl UnaryView<'_> {
    /// True iff the symbol is in the relation (either layer): two bitset
    /// word probes, no hashing.
    #[inline]
    pub fn contains(&self, sym: Symbol) -> bool {
        self.base.is_some_and(|r| r.cols.bits.contains(sym.id()))
            || self.delta.is_some_and(|r| r.cols.bits.contains(sym.id()))
    }

    /// Number of distinct symbols (layers never duplicate each other).
    pub fn len(&self) -> usize {
        self.base.map_or(0, |r| r.tuples.len()) + self.delta.map_or(0, |r| r.tuples.len())
    }

    /// True iff the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the symbols in insertion order (base layer first); each
    /// symbol appears exactly once.
    pub fn iter(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.base
            .into_iter()
            .chain(self.delta)
            .flat_map(|r| r.tuples.iter().map(|t| t[0]))
    }
}

/// A set of derived relations, stored densely behind an interned
/// [`PredTable`]: the public API is keyed by [`Predicate`] for convenience,
/// while the evaluator addresses relations by [`PredId`] vector index.
///
/// A store is either flat or an overlay over a frozen [`BaseStore`] (see
/// the [module docs](crate::store) for the layering contract).
#[derive(Debug, Clone, Default)]
pub struct RelationStore {
    preds: PredTable,
    /// The frozen bottom layer, if this store is an overlay.
    base: Option<Arc<BaseStore>>,
    /// This layer's relations; for overlays, only the tuples added on top
    /// of the base.
    relations: Vec<Relation>,
    /// Monotone watermark: bumped exactly once per tuple that is actually
    /// inserted (duplicates do not count); overlays start at the base's
    /// watermark. The engine and the maintenance passes count the tuples a
    /// run derived as the watermark's growth.
    generation: u64,
}

impl RelationStore {
    /// Creates an empty flat store.
    pub fn new() -> RelationStore {
        RelationStore::default()
    }

    /// Forks a mutable overlay on a frozen base: lookups see `base ∪
    /// overlay`, inserts land in the overlay, and the fork itself is
    /// O(number of predicates) — the copy-on-write entry point for
    /// family workloads.
    pub fn overlay_on(base: &Arc<BaseStore>) -> RelationStore {
        let mut relations = Vec::new();
        relations.resize_with(base.relations.len(), Relation::default);
        RelationStore {
            preds: base.preds.clone(),
            generation: base.generation,
            base: Some(Arc::clone(base)),
            relations,
        }
    }

    /// The frozen base layer, if this store is an overlay.
    pub fn base(&self) -> Option<&Arc<BaseStore>> {
        self.base.as_ref()
    }

    /// The base layer's relation for an interned id, if the store is an
    /// overlay and the base knows the id (ids interned after the fork are
    /// overlay-only).
    #[inline]
    fn base_relation(&self, id: PredId) -> Option<&Relation> {
        self.base.as_ref().and_then(|b| b.relations.get(id.index()))
    }

    /// Interns a predicate into this store, growing the relation vector.
    pub(crate) fn intern(&mut self, pred: Predicate) -> PredId {
        let id = self.preds.intern(pred);
        if id.index() >= self.relations.len() {
            self.relations
                .resize_with(id.index() + 1, Relation::default);
        }
        id
    }

    /// The store-scoped id of a predicate, if any tuples were ever inserted
    /// for it (or it was touched by an evaluation).
    pub fn pred_id(&self, pred: Predicate) -> Option<PredId> {
        self.preds.lookup(pred)
    }

    /// The tuples of a predicate (empty if absent), in id order: base layer
    /// first, then this layer, each in insertion order.
    pub fn tuples(&self, pred: Predicate) -> impl Iterator<Item = &Tuple> {
        self.preds
            .lookup(pred)
            .map_or_else(Tuples::empty, |id| self.tuples_by_id(id))
            .iter()
    }

    /// The tuples of an interned predicate as a two-segment view; tuple ids
    /// used by indexes and deltas are positions in it.
    #[inline]
    pub(crate) fn tuples_by_id(&self, id: PredId) -> Tuples<'_> {
        Tuples {
            base: self
                .base_relation(id)
                .map_or(&[][..], |r| r.tuples.as_slice()),
            delta: &self.relations[id.index()].tuples,
        }
    }

    /// The committed base-layer index for `(id, mask)`, if this store is an
    /// overlay and the base holds tuples of the predicate. The flag reports
    /// whether the call built the index (first probe over this base) or
    /// found it cached.
    pub(crate) fn base_index(&self, id: PredId, mask: u32) -> Option<(Arc<BaseIndex>, bool)> {
        let base = self.base.as_ref()?;
        match base.relations.get(id.index()) {
            Some(r) if !r.tuples.is_empty() => Some(base.committed_index(id, mask)),
            _ => None,
        }
    }

    /// The committed base-layer CSR adjacency for `(id, key_col)`, if this
    /// store is an overlay and the base holds tuples of the predicate; same
    /// contract as [`RelationStore::base_index`].
    pub(crate) fn base_csr(&self, id: PredId, key_col: u8) -> Option<(Arc<CsrIndex>, bool)> {
        let base = self.base.as_ref()?;
        match base.relations.get(id.index()) {
            Some(r) if !r.tuples.is_empty() => Some(base.committed_csr(id, key_col)),
            _ => None,
        }
    }

    /// The binary column mirrors of an interned predicate as a two-segment
    /// view; ids match [`RelationStore::tuples_by_id`].
    #[inline]
    pub(crate) fn cols2_by_id(&self, id: PredId) -> Cols2<'_> {
        let base = self.base_relation(id).map(|r| &r.cols);
        let delta = &self.relations[id.index()].cols;
        Cols2 {
            base0: base.map_or(&[][..], |c| &c.c0),
            base1: base.map_or(&[][..], |c| &c.c1),
            delta0: &delta.c0,
            delta1: &delta.c1,
        }
    }

    /// The unary column mirror and membership bitsets of an interned
    /// predicate as a two-segment view.
    #[inline]
    pub(crate) fn cols1_by_id(&self, id: PredId) -> Cols1<'_> {
        let base = self.base_relation(id).map(|r| &r.cols);
        let delta = &self.relations[id.index()].cols;
        Cols1 {
            base: base.map_or(&[][..], |c| &c.c0),
            delta: &delta.c0,
            base_bits: base.map(|c| &c.bits),
            delta_bits: &delta.bits,
        }
    }

    /// True iff the tuple is present (either layer).
    pub fn contains(&self, pred: Predicate, tuple: &[Symbol]) -> bool {
        self.preds
            .lookup(pred)
            .is_some_and(|id| self.contains_by_id(id, tuple))
    }

    /// True iff the tuple is present, by interned id.
    #[inline]
    pub(crate) fn contains_by_id(&self, id: PredId, tuple: &[Symbol]) -> bool {
        self.relations[id.index()].contains(tuple)
            || self.base_relation(id).is_some_and(|r| r.contains(tuple))
    }

    /// Inserts a tuple; returns true if it was new.
    pub fn insert(&mut self, pred: Predicate, tuple: impl Into<Tuple>) -> bool {
        let tuple = tuple.into();
        debug_assert_eq!(pred.arity, tuple.len());
        let id = self.intern(pred);
        self.insert_by_id(id, tuple)
    }

    /// Inserts a tuple for an interned predicate; returns true if it was new
    /// in `base ∪ overlay` (tuples the base holds are never duplicated into
    /// the overlay).
    #[inline]
    pub(crate) fn insert_by_id(&mut self, id: PredId, tuple: Tuple) -> bool {
        if self
            .base_relation(id)
            .is_some_and(|r| r.contains(tuple.as_slice()))
        {
            return false;
        }
        let inserted = self.relations[id.index()].insert(tuple);
        self.generation += inserted as u64;
        inserted
    }

    /// Removes a tuple from a **flat** store; returns true iff it was
    /// present. Overlays cannot remove (their base layer is frozen and
    /// shared); the only callers are the differential maintenance passes of
    /// [`crate::maintain`], which operate on flat maintained stores. The
    /// generation watermark is deliberately *not* decremented — it is a
    /// monotone "has anything grown?" signal, and maintenance tracks its own
    /// change counts.
    pub fn remove(&mut self, pred: Predicate, tuple: &[Symbol]) -> bool {
        debug_assert!(self.base.is_none(), "remove is only valid on flat stores");
        self.preds
            .lookup(pred)
            .is_some_and(|id| self.relations[id.index()].remove(tuple))
    }

    /// A flat deep copy of this store: same predicates (in interning order),
    /// same fact sets, base and overlay merged into a single mutable layer.
    /// This is how a maintained store is born — evaluation runs on a cheap
    /// overlay, and the fixpoint is flattened once so maintenance can remove
    /// tuples (the overlay's base layer is frozen and shared).
    pub fn flatten(&self) -> RelationStore {
        let mut flat = RelationStore::new();
        for (id, pred) in self.preds.iter() {
            let fid = flat.intern(pred);
            for tuple in self.tuples_by_id(id).iter() {
                flat.insert_by_id(fid, tuple.clone());
            }
        }
        flat
    }

    /// Total number of tuples across every predicate (both layers) — the
    /// memory-footprint measure maintained-IDB accounting reports.
    pub fn total_tuples(&self) -> usize {
        self.preds.iter().map(|(id, _)| self.len_of(id)).sum()
    }

    /// The store's insertion watermark: the total number of tuples ever
    /// inserted (duplicates excluded), counting the base layer. Strictly
    /// monotone, so two equal generations guarantee that no relation has
    /// grown in between.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of tuples of a predicate, across both layers.
    pub fn len(&self, pred: Predicate) -> usize {
        self.preds.lookup(pred).map_or(0, |id| self.len_of(id))
    }

    /// Number of tuples of an interned predicate, across both layers.
    #[inline]
    pub fn len_of(&self, id: PredId) -> usize {
        self.base_relation(id).map_or(0, |r| r.tuples.len())
            + self.relations[id.index()].tuples.len()
    }

    /// Iterates over every nonempty relation as `(predicate, tuples)`, in
    /// interning order. The supported way for tests and benches to look at
    /// everything a run derived without reaching into store internals.
    pub fn iter_relations(&self) -> impl Iterator<Item = (Predicate, Tuples<'_>)> {
        self.preds
            .iter()
            .map(|(id, pred)| (pred, self.tuples_by_id(id)))
            .filter(|(_, tuples)| !tuples.is_empty())
    }

    /// True iff no tuples at all are stored (in either layer).
    pub fn is_empty(&self) -> bool {
        self.iter_relations().next().is_none()
    }

    /// The unary relation of a predicate as a borrowed [`UnaryView`] (O(1)
    /// membership, allocation-free), or an arity error if the predicate is
    /// not unary. An absent predicate yields the empty view.
    pub fn unary(&self, pred: Predicate) -> Result<UnaryView<'_>, EngineError> {
        if pred.arity != 1 {
            return Err(EngineError::ArityMismatch { pred, expected: 1 });
        }
        let id = self.preds.lookup(pred);
        Ok(UnaryView {
            base: id.and_then(|id| self.base_relation(id)),
            delta: id.map(|id| &self.relations[id.index()]),
        })
    }

    /// Bulk-loads tuples into a predicate of a **flat** store, reserving
    /// capacity up front. The caller asserts the tuples are pairwise
    /// distinct and not yet present (each still lands in the shape-routed
    /// membership structure once, but is never re-checked or re-inserted);
    /// overlays must go through [`RelationStore::insert`], which deduplicates
    /// against the base.
    pub(crate) fn bulk_load<I: ExactSizeIterator<Item = Tuple>>(
        &mut self,
        pred: Predicate,
        tuples: I,
    ) {
        debug_assert!(self.base.is_none(), "bulk_load is a flat-store fast path");
        let id = self.intern(pred);
        let relation = &mut self.relations[id.index()];
        relation.tuples.reserve(tuples.len());
        match pred.arity {
            1 => {}
            2 => relation.pairs.reserve(tuples.len()),
            _ => relation.set.reserve(tuples.len()),
        }
        for tuple in tuples {
            debug_assert_eq!(pred.arity, tuple.len());
            debug_assert!(!relation.contains(tuple.as_slice()));
            match tuple.as_slice() {
                [a] => {
                    relation.cols.bits.insert(a.id());
                }
                [a, b] => {
                    relation.pairs.insert(pack_pair(a.id(), b.id()));
                }
                _ => {
                    relation.set.insert(tuple.clone());
                }
            }
            relation.cols.push(&tuple);
            relation.tuples.push(tuple);
            self.generation += 1;
        }
    }
}

impl PartialEq for RelationStore {
    /// Set equality per predicate, ignoring empty relations and insertion
    /// order — the natural notion for comparing evaluation results. Layering
    /// is invisible here: an overlay equals the flat store holding the same
    /// fact sets.
    fn eq(&self, other: &RelationStore) -> bool {
        let count = |store: &RelationStore| store.iter_relations().count();
        count(self) == count(other)
            && self.preds.iter().all(|(id, pred)| {
                let mine = self.tuples_by_id(id);
                mine.is_empty()
                    || other.preds.lookup(pred).is_some_and(|oid| {
                        // Both sides are duplicate-free sets, so equal
                        // cardinality plus inclusion is equality.
                        other.len_of(oid) == mine.len()
                            && mine.iter().all(|t| other.contains_by_id(oid, t.as_slice()))
                    })
            })
    }
}

impl Eq for RelationStore {}

/// Loads the extensional database from a [`DatabaseInstance`]: every relation
/// name `R` becomes a binary predicate `R`, and the unary predicate `adom`
/// holds the active domain.
///
/// This is a bulk fast path: facts arrive grouped per relation with exact
/// counts ([`DatabaseInstance::facts_by_relation`]), so each relation is
/// loaded with pre-reserved capacity and a single hash per fact, instead of
/// re-probing the predicate map and the dedup set fact by fact.
pub fn edb_from_instance(db: &DatabaseInstance) -> RelationStore {
    let mut store = RelationStore::new();
    for (rel, pairs) in db.facts_by_relation() {
        let pred = Predicate {
            name: rel.symbol(),
            arity: 2,
        };
        store.bulk_load(
            pred,
            pairs
                .iter()
                .map(|&(k, v)| Tuple::from([k.symbol(), v.symbol()])),
        );
    }
    let adom = Predicate::new("adom", 1);
    store.bulk_load(adom, db.adom().iter().map(|c| Tuple::from([c.symbol()])));
    store
}

/// Loads a shared EDB prefix once and freezes it into an `Arc`-shared base
/// layer. Pair with [`edb_overlay_on`] to serve a whole family of instances
/// extending the prefix with O(delta) work per instance.
pub fn edb_base_from_instance(db: &DatabaseInstance) -> Arc<BaseStore> {
    BaseStore::freeze(edb_from_instance(db))
}

/// Forks an overlay on a frozen EDB base and loads only `delta`'s facts (and
/// active-domain constants) into it. The resulting store holds exactly the
/// fact sets of `edb_from_instance(prefix ∪ delta)` — facts the base already
/// holds are deduplicated away — while sharing the prefix's tuples and
/// committed indexes with every sibling overlay.
pub fn edb_overlay_on(base: &Arc<BaseStore>, delta: &DatabaseInstance) -> RelationStore {
    let mut store = RelationStore::overlay_on(base);
    for (rel, pairs) in delta.facts_by_relation() {
        let pred = Predicate {
            name: rel.symbol(),
            arity: 2,
        };
        let id = store.intern(pred);
        for &(k, v) in &pairs {
            store.insert_by_id(id, Tuple::from([k.symbol(), v.symbol()]));
        }
    }
    let adom = store.intern(Predicate::new("adom", 1));
    for c in delta.adom() {
        store.insert_by_id(adom, Tuple::from([c.symbol()]));
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(name: &str, arity: usize) -> Predicate {
        Predicate::new(name, arity)
    }

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    fn small_db() -> DatabaseInstance {
        let mut db = DatabaseInstance::new();
        db.insert_parsed("R", "a", "b");
        db.insert_parsed("R", "b", "c");
        db.insert_parsed("S", "a", "c");
        db
    }

    #[test]
    fn overlay_sees_base_and_own_tuples() {
        let base = edb_base_from_instance(&small_db());
        let mut delta = DatabaseInstance::new();
        delta.insert_parsed("R", "c", "d");
        let store = edb_overlay_on(&base, &delta);
        let r = pred("R", 2);
        assert_eq!(store.len(r), 3);
        assert!(store.contains(r, &[sym("a"), sym("b")])); // base
        assert!(store.contains(r, &[sym("c"), sym("d")])); // overlay
        assert!(!store.contains(r, &[sym("d"), sym("c")]));
        // adom spans both layers: {a, b, c} ∪ {c, d}.
        assert_eq!(store.len(pred("adom", 1)), 4);
        // The overlay equals the fresh load of the union.
        let fresh = edb_from_instance(&small_db().union(&delta));
        assert_eq!(store, fresh);
        assert_eq!(fresh, store);
    }

    #[test]
    fn overlay_inserts_deduplicate_against_the_base() {
        let base = edb_base_from_instance(&small_db());
        let mut store = RelationStore::overlay_on(&base);
        let r = pred("R", 2);
        let before = store.generation();
        assert_eq!(before, base.generation());
        // A base fact: rejected, watermark untouched.
        assert!(!store.insert(r, [sym("a"), sym("b")]));
        assert_eq!(store.generation(), before);
        // A new fact: lands in the overlay exactly once.
        assert!(store.insert(r, [sym("z"), sym("z")]));
        assert!(!store.insert(r, [sym("z"), sym("z")]));
        assert_eq!(store.generation(), before + 1);
        assert_eq!(store.len(r), 3);
    }

    #[test]
    fn tuple_ids_index_the_concatenation() {
        let base = edb_base_from_instance(&small_db());
        let mut store = RelationStore::overlay_on(&base);
        let r = pred("R", 2);
        store.insert(r, [sym("x"), sym("y")]);
        let id = store.pred_id(r).unwrap();
        let view = store.tuples_by_id(id);
        assert_eq!(view.len(), 3);
        assert_eq!(view.base_len(), 2);
        assert_eq!(view.get(0).as_slice(), &[sym("a"), sym("b")]);
        assert_eq!(view.get(2).as_slice(), &[sym("x"), sym("y")]);
        let collected: Vec<_> = view.iter().map(|t| t[0]).collect();
        assert_eq!(collected, vec![sym("a"), sym("b"), sym("x")]);
        // Segments split ranges at the seam.
        let (lo, hi) = view.segments(1, 3);
        assert_eq!(lo.len(), 1);
        assert_eq!(hi.len(), 1);
        let (all_base, none) = view.segments(0, 2);
        assert_eq!(all_base.len(), 2);
        assert!(none.is_empty());
    }

    #[test]
    fn committed_indexes_build_once_and_are_shared() {
        let base = edb_base_from_instance(&small_db());
        let r_id = {
            let probe = RelationStore::overlay_on(&base);
            probe.pred_id(pred("R", 2)).unwrap()
        };
        let (first, built_first) = base.committed_index(r_id, 0b01);
        assert!(built_first);
        let (second, built_second) = base.committed_index(r_id, 0b01);
        assert!(!built_second);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(base.index_builds(), 1);
        // A different mask is a different index.
        let (_, built_other) = base.committed_index(r_id, 0b10);
        assert!(built_other);
        assert_eq!(base.index_builds(), 2);
        // The key-projected entries cover the base tuples.
        let key = Tuple::from([sym("a")]);
        assert_eq!(
            first.entries.get(&key).map(Vec::as_slice),
            Some(&[0u32][..])
        );
    }

    #[test]
    fn unary_view_is_deduplicated_and_layered() {
        let mut flat = RelationStore::new();
        let p = pred("p", 1);
        // Duplicate inserts collapse: the view sees each symbol once.
        assert!(flat.insert(p, [sym("a")]));
        assert!(!flat.insert(p, [sym("a")]));
        assert!(flat.insert(p, [sym("b")]));
        let view = flat.unary(p).unwrap();
        assert_eq!(view.len(), 2);
        assert!(view.contains(sym("a")));
        assert!(!view.contains(sym("c")));
        assert_eq!(view.iter().collect::<Vec<_>>(), vec![sym("a"), sym("b")]);

        // Across layers: base {a, b}, overlay adds c and re-adds a (no-op).
        let base = BaseStore::freeze(flat);
        let mut overlay = RelationStore::overlay_on(&base);
        overlay.insert(p, [sym("c")]);
        overlay.insert(p, [sym("a")]);
        let view = overlay.unary(p).unwrap();
        assert_eq!(view.len(), 3);
        assert_eq!(
            view.iter().collect::<Vec<_>>(),
            vec![sym("a"), sym("b"), sym("c")]
        );

        // Arity misuse is still rejected; absent predicates are empty.
        assert!(overlay.unary(pred("R", 2)).is_err());
        assert!(overlay.unary(pred("absent", 1)).unwrap().is_empty());
    }

    #[test]
    fn column_mirrors_track_tuples_across_layers() {
        let base = edb_base_from_instance(&small_db());
        let mut store = RelationStore::overlay_on(&base);
        let r = pred("R", 2);
        store.insert(r, [sym("c"), sym("d")]);
        let id = store.pred_id(r).unwrap();
        let cols = store.cols2_by_id(id);
        let tuples = store.tuples_by_id(id);
        assert_eq!(cols.base0.len() + cols.delta0.len(), tuples.len());
        for (i, t) in tuples.iter().enumerate() {
            let ((b0, b1), (d0, d1)) = cols.segments(i, i + 1);
            let (c0, c1) = if b0.is_empty() {
                (d0[0], d1[0])
            } else {
                (b0[0], b1[0])
            };
            assert_eq!((c0, c1), (t[0].id(), t[1].id()));
        }
        // Unary mirror + bitset membership across layers.
        let adom = store.intern(pred("adom", 1));
        store.insert_by_id(adom, Tuple::from([sym("zz")]));
        let ones = store.cols1_by_id(adom);
        assert!(ones.contains(sym("a").id())); // base layer
        assert!(ones.contains(sym("zz").id())); // overlay
        assert!(!ones.contains(sym("unseen-symbol").id()));
        assert_eq!(ones.base.len() + ones.delta.len(), store.len_of(adom));
    }

    #[test]
    fn csr_buckets_match_the_hash_index_and_stay_in_id_order() {
        let mut flat = RelationStore::new();
        let r = pred("R", 2);
        for (k, v) in [("a", "x"), ("b", "y"), ("a", "z"), ("a", "w")] {
            flat.insert(r, [sym(k), sym(v)]);
        }
        let id = flat.pred_id(r).unwrap();
        let cols = flat.cols2_by_id(id);
        let csr = CsrIndex::build(cols.delta0, cols.delta1);
        // Bucket values come back in ascending tuple-id (insertion) order.
        assert_eq!(
            csr.bucket(sym("a").id()),
            &[sym("x").id(), sym("z").id(), sym("w").id()]
        );
        assert_eq!(csr.bucket(sym("b").id()), &[sym("y").id()]);
        assert!(csr.bucket(sym("x").id()).is_empty() || sym("x").id() == sym("a").id());

        // The committed base CSR agrees and builds exactly once.
        let base = BaseStore::freeze(flat);
        let builds_before = base.index_builds();
        let (first, built) = base.committed_csr(id, 0);
        assert!(built);
        let (second, built_again) = base.committed_csr(id, 0);
        assert!(!built_again);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(base.index_builds(), builds_before + 1);
        assert_eq!(first.bucket(sym("a").id()).len(), 3);
        // Keyed by the other column.
        let (by_val, _) = base.committed_csr(id, 1);
        assert_eq!(by_val.bucket(sym("z").id()), &[sym("a").id()]);
    }

    #[test]
    fn csr_sparse_fallback_agrees_with_dense() {
        // Force the sparse representation with two far-apart synthetic keys.
        let keys = [0u32, u32::MAX - 1, 0, u32::MAX - 1];
        let vals = [1u32, 2, 3, 4];
        let csr = CsrIndex::build(&keys, &vals);
        assert!(matches!(csr, CsrIndex::Sparse(_)));
        assert_eq!(csr.bucket(0), &[1, 3]);
        assert_eq!(csr.bucket(u32::MAX - 1), &[2, 4]);
        assert!(csr.bucket(7).is_empty());
        let dense = CsrIndex::build(&[5, 7, 5], &[1, 2, 3]);
        assert!(matches!(dense, CsrIndex::Dense { .. }));
        assert_eq!(dense.bucket(5), &[1, 3]);
        assert!(dense.bucket(4).is_empty());
        assert!(dense.bucket(8).is_empty());
    }

    #[test]
    fn freeze_rejects_overlays() {
        let base = edb_base_from_instance(&small_db());
        let overlay = RelationStore::overlay_on(&base);
        let result = std::panic::catch_unwind(move || BaseStore::freeze(overlay));
        assert!(result.is_err(), "re-freezing an overlay must panic");
    }
}
