//! Evaluation options and run statistics.
//!
//! [`EvalOptions`] carries the knobs threaded from the solvers down to the
//! engine — the batch fan-out budget ([`Threads`]), demand transformation,
//! kernel execution, checkpoint resume and differential maintenance — each
//! with an `Auto` position that defers to its `PATH_CQA_*` environment
//! variable. [`EvalStats`] reports what one evaluation run did.
//!
//! The engine itself has a single stratum driver, the sequential semi-naive
//! loop of [`crate::engine`]; the only parallelism is the solver layer's
//! batch fan-out (`cqa-solver`'s `CertaintySession::certain_batch*`), which
//! decides independent requests on scoped worker threads.

/// The batch fan-out budget only: how many scoped worker threads a
/// certainty session may spread one batch of independent requests across.
/// The engine never reads it — every stratum runs on the sequential
/// semi-naive loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Defer to the `PATH_CQA_THREADS` environment variable; when it is
    /// unset (or unparsable) use [`std::thread::available_parallelism`].
    /// On a single-core host batches stay on the calling thread.
    #[default]
    Auto,
    /// A fixed number of threads; `1` decides every batch on the calling
    /// thread.
    Fixed(usize),
}

impl Threads {
    /// The number of worker threads to use, always at least 1.
    ///
    /// `Auto` is resolved once per process (environment lookup plus an
    /// `available_parallelism` syscall are not free, and this sits on the
    /// per-batch path of warm certainty sessions); set `PATH_CQA_THREADS`
    /// before the first batch.
    pub fn resolve(self) -> usize {
        match self {
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => {
                static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
                *AUTO.get_or_init(|| {
                    std::env::var("PATH_CQA_THREADS")
                        .ok()
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| {
                            std::thread::available_parallelism().map_or(1, |n| n.get())
                        })
                })
            }
        }
    }
}

/// Whether eligible rules execute through the shape-specialized kernels of
/// [`crate::kernel`] (columnar scans, CSR probes, bitset membership) instead
/// of the generic tuple executor.
///
/// Kernels are always *compiled* — selection is recorded per rule in the
/// [`crate::engine::CompiledProgram`], so plan caches are oblivious to this
/// knob — and the choice of execution path is made per run, which is what
/// makes runtime bisection of a suspected kernel bug possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernels {
    /// Defer to the `PATH_CQA_KERNELS` environment variable (`off` or `0`
    /// disables; anything else — including unset — enables). Resolved once
    /// per process, like `PATH_CQA_THREADS`.
    #[default]
    Auto,
    /// Force the generic executor for every rule.
    Off,
    /// Use kernels for every eligible rule.
    On,
}

impl Kernels {
    /// True iff eligible rules should take the kernel path.
    pub fn resolve(self) -> bool {
        match self {
            Kernels::On => true,
            Kernels::Off => false,
            Kernels::Auto => {
                static AUTO: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
                *AUTO.get_or_init(|| {
                    !matches!(
                        std::env::var("PATH_CQA_KERNELS").as_deref(),
                        Ok("off") | Ok("0")
                    )
                })
            }
        }
    }
}

/// Whether family evaluation may resume from a checkpointed base — a frozen
/// [`crate::store::BaseStore`] variant whose relations already hold the
/// fixpoint of the program's *checkpointable* strata (monotone, dependent
/// only on the EDB and earlier checkpointable strata), computed once per
/// (base, compiled program) pair.
///
/// Like [`Kernels`], this knob never changes *what* is derived — resumed
/// evaluation reaches the identical fixpoint (pinned by the checkpoint
/// differential suite) — only how much per-request work it takes to get
/// there, which is what makes runtime bisection possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Checkpoint {
    /// Defer to the `PATH_CQA_CHECKPOINT` environment variable (`off` or `0`
    /// disables; anything else — including unset — enables). Resolved once
    /// per process, like `PATH_CQA_THREADS`.
    #[default]
    Auto,
    /// Always evaluate from scratch on the raw base.
    Off,
    /// Resume from the checkpointed base whenever the program has
    /// checkpointable strata.
    On,
}

impl Checkpoint {
    /// True iff evaluation should resume from checkpointed bases.
    pub fn resolve(self) -> bool {
        match self {
            Checkpoint::On => true,
            Checkpoint::Off => false,
            Checkpoint::Auto => {
                static AUTO: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
                *AUTO.get_or_init(|| {
                    !matches!(
                        std::env::var("PATH_CQA_CHECKPOINT").as_deref(),
                        Ok("off") | Ok("0")
                    )
                })
            }
        }
    }
}

/// Whether resident family evaluation may answer from a *maintained*
/// materialized IDB — a flat [`RelationStore`] kept at the program's fixpoint
/// across `APPEND`/`RETRACT` mutations by differential maintenance
/// (counting-based for non-recursive strata, classic DRed
/// overdelete → rederive → re-insert for the rest; see [`crate::maintain`])
/// instead of re-deriving from the base on every request.
///
/// Like [`Checkpoint`], this knob never changes *what* is derived — the
/// maintained store is byte-identical to a from-scratch run (pinned by the
/// checkpoint differential suite across maintain × checkpoint × demand ×
/// kernels) — only how much per-mutation work it takes to stay
/// there. `Auto` additionally falls back to from-scratch re-derivation when
/// the change ratio makes maintenance unprofitable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Maintain {
    /// Defer to the `PATH_CQA_MAINTAIN` environment variable (`off` or `0`
    /// disables; anything else — including unset — enables). Resolved once
    /// per process, like `PATH_CQA_THREADS`.
    #[default]
    Auto,
    /// Never maintain: every request re-derives from the base store.
    Off,
    /// Maintain whenever the solver holds a resident base, even when the
    /// change ratio makes from-scratch re-derivation cheaper.
    On,
}

impl Maintain {
    /// True iff resident evaluation should keep and maintain materialized
    /// IDB state.
    pub fn resolve(self) -> bool {
        match self {
            Maintain::On => true,
            Maintain::Off => false,
            Maintain::Auto => {
                static AUTO: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
                *AUTO.get_or_init(|| {
                    !matches!(
                        std::env::var("PATH_CQA_MAINTAIN").as_deref(),
                        Ok("off") | Ok("0")
                    )
                })
            }
        }
    }

    /// True iff the unprofitable-change fallback applies (only `Auto` falls
    /// back; `On` forces maintenance regardless of the change ratio, which is
    /// what the differential suite uses to keep the maintenance passes
    /// themselves under test).
    pub fn fallback_allowed(self) -> bool {
        !matches!(self, Maintain::On)
    }
}

/// Evaluation options, threaded from the solvers down to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalOptions {
    /// Worker-thread budget for fanning out batched certainty requests at
    /// the solver layer (see [`Threads`]); the engine ignores it.
    pub threads: Threads,
    /// Demand transformation applied at program-generation time (see
    /// [`crate::demand`]): goal-reachability pruning plus the magic-sets
    /// rewrite, or nothing. The engine itself never consults this — by the time a plan
    /// is compiled the transformation already happened — but it rides in the
    /// options so solvers and sessions pick it up from one place.
    pub demand: crate::demand::Demand,
    /// Whether eligible rules execute through the specialized kernels of
    /// [`crate::kernel`]; consulted at execution time only (see [`Kernels`]).
    pub kernels: Kernels,
    /// Whether family evaluation resumes from checkpointed bases; consulted
    /// by the solver layer when it holds an `Arc`-shared base (see
    /// [`Checkpoint`]).
    pub checkpoint: Checkpoint,
    /// Whether resident family evaluation answers from a differentially
    /// maintained materialized IDB; consulted by the solver layer when it
    /// holds an `Arc`-shared base and a stable per-request slot (see
    /// [`Maintain`]).
    pub maintain: Maintain,
}

impl EvalOptions {
    /// Options with no batch fan-out (`threads = 1`).
    pub fn sequential() -> EvalOptions {
        EvalOptions {
            threads: Threads::Fixed(1),
            ..EvalOptions::default()
        }
    }

    /// Options with a fixed batch fan-out budget.
    pub fn with_threads(n: usize) -> EvalOptions {
        EvalOptions {
            threads: Threads::Fixed(n),
            ..EvalOptions::default()
        }
    }

    /// These options with an explicit demand setting.
    pub fn with_demand(self, demand: crate::demand::Demand) -> EvalOptions {
        EvalOptions { demand, ..self }
    }

    /// These options with an explicit kernel setting.
    pub fn with_kernels(self, kernels: Kernels) -> EvalOptions {
        EvalOptions { kernels, ..self }
    }

    /// These options with an explicit checkpoint setting.
    pub fn with_checkpoint(self, checkpoint: Checkpoint) -> EvalOptions {
        EvalOptions { checkpoint, ..self }
    }

    /// These options with an explicit maintenance setting.
    pub fn with_maintain(self, maintain: Maintain) -> EvalOptions {
        EvalOptions { maintain, ..self }
    }
}

/// Statistics of one evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Semi-naive rounds executed, summed over strata (the initial
    /// full-plan round of each stratum counts as one).
    pub rounds: u64,
    /// Index-extension passes that actually absorbed tuples. Slots absorb
    /// lazily, on the first probe after their relation grew, so the final
    /// unproductive round's termination check extends nothing — pinned by a
    /// regression test.
    pub index_extensions: u64,
    /// Committed base-layer indexes this run *built* (rather than found
    /// cached on its store's [`crate::store::BaseStore`]). Zero for flat
    /// stores; for a family of runs over one shared base only the first run
    /// reports nonzero — pinned by a regression test, since re-building per
    /// run would silently forfeit the copy-on-write win.
    pub base_index_builds: u64,
    /// Tuples this run actually inserted (EDB-load inserts excluded: the run
    /// measures the store's [`crate::store::RelationStore::generation`]
    /// watermark from entry to exit, and the EDB is loaded before entry).
    /// This is the number demand-driven derivation exists to shrink; the
    /// demand differential suite asserts it strictly drops on goal-sparse
    /// programs.
    pub tuples_derived: u64,
    /// Rules the demand transformation removed from the program this plan
    /// was compiled from. Zero unless the caller stamped it from a
    /// [`crate::demand::DemandReport`] (the engine itself only sees the
    /// already-transformed program).
    pub rules_pruned: u64,
    /// IDB predicates the demand transformation eliminated entirely; same
    /// stamping convention as `rules_pruned`.
    pub predicates_pruned: u64,
    /// Compiled plans (full and delta) this run executed through the
    /// specialized kernels of [`crate::kernel`]. Zero when kernels are
    /// disabled for the run; the kernel differential suite asserts it is
    /// nonzero on the generated (binary-heavy) CQA programs.
    pub kernel_rules: u64,
    /// Compiled plans this run executed through the generic tuple executor
    /// (ineligible rules, or every rule when kernels are disabled).
    pub generic_rules: u64,
    /// Kernel derive calls this run issued (one per kernel rule execution)
    /// — the per-run "kernel hit" count surfaced through session and server
    /// stats.
    pub kernel_invocations: u64,
    /// Strata this run resumed from a base checkpoint instead of evaluating
    /// from scratch (their initial full-plan round was replaced by
    /// delta-restricted resume plans over the overlay EDB). Zero when the
    /// run evaluated on a raw base or the checkpoint knob is off; the
    /// checkpoint differential suite asserts resumed and from-scratch runs
    /// agree bit-for-bit regardless.
    pub checkpoint_hits: u64,
    /// Requests answered from a differentially maintained materialized IDB
    /// instead of a from-scratch derivation — both pure hits (the mutation
    /// delta was unchanged since the store was last maintained) and
    /// O(change) maintenance passes count; bootstraps and unprofitable-change
    /// rebuilds do not. Zero when maintenance is off or the solver has no
    /// stable per-request slot.
    pub maintained_hits: u64,
    /// Tuples the maintenance passes physically removed from the maintained
    /// store: DRed overdeletion marks that reached the removal sweep, plus
    /// counting-stratum tuples whose derivation count dropped to zero.
    pub tuples_overdeleted: u64,
    /// Tuples the DRed rederivation phase re-inserted after overdeletion
    /// (alternative derivations survived the deleted support).
    pub tuples_rederived: u64,
    /// Wall-clock nanoseconds spent evaluating strata (semi-naive rounds),
    /// summed over the run. For maintained answers this is
    /// the repair pass duration instead. Always-on: the timer wraps whole
    /// strata, not rounds, so its cost is noise next to one fixpoint.
    pub eval_ns: u64,
    /// Wall-clock nanoseconds spent building or extending per-run index
    /// structures (committed base index/CSR attach + builds, overlay
    /// absorption). A subset of `eval_ns` — timed only in the slow branches
    /// of the index space, never on the per-probe fast path.
    pub index_build_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BodyLiteral, DlAtom, DlTerm, Predicate, Program, Rule};
    use crate::engine::{CompiledProgram, RelationStore};
    use cqa_db::instance::DatabaseInstance;

    fn atom(name: &str, vars: &[&str]) -> DlAtom {
        DlAtom::new(
            Predicate::new(name, vars.len()),
            vars.iter().map(|v| DlTerm::var(v)).collect(),
        )
    }

    /// Nonlinear transitive closure: both body literals are recursive, so
    /// every productive round must extend both `(path, mask)` index slots.
    fn nonlinear_tc() -> Program {
        let mut p = Program::new();
        p.declare_edb(Predicate::new("E", 2));
        p.add_rule(Rule::new(
            atom("path", &["X", "Y"]),
            vec![BodyLiteral::Positive(atom("E", &["X", "Y"]))],
        ));
        p.add_rule(Rule::new(
            atom("path", &["X", "Z"]),
            vec![
                BodyLiteral::Positive(atom("path", &["X", "Y"])),
                BodyLiteral::Positive(atom("path", &["Y", "Z"])),
            ],
        ));
        p
    }

    fn chain_db(n: usize) -> DatabaseInstance {
        let mut db = DatabaseInstance::new();
        for i in 0..n {
            db.insert_parsed("E", &format!("n{i}"), &format!("n{}", i + 1));
        }
        db
    }

    #[test]
    fn threads_resolution_clamps_and_reads_fixed() {
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert_eq!(Threads::Fixed(4).resolve(), 4);
        assert_eq!(EvalOptions::sequential().threads.resolve(), 1);
        assert_eq!(EvalOptions::with_threads(8).threads.resolve(), 8);
        assert!(Threads::Auto.resolve() >= 1);
    }

    #[test]
    fn unproductive_rounds_do_not_re_extend_indexes() {
        // Chain n0..n3. The driver inserts eagerly, so the initial round
        // already closes paths of length 2, and index slots absorb new
        // tuples lazily, on the first probe after the relation grew:
        //
        //   round 1 (full plans):  path@3 before the join probes slot
        //                          (path, 0b01), which absorbs them  -> +1
        //   round 2 (delta 0..5):  slot 0b01 absorbs path@5, then the
        //                          second delta plan's first probe of
        //                          slot 0b10 absorbs path@6          -> +2
        //   round 3 (delta 5..6):  slot 0b01 absorbs path@6; slot
        //                          0b10 is already current           -> +1
        //   termination check:     store unchanged, NO pass          -> +0
        //
        // A regressed driver that extends before checking termination (or
        // that bumps versions on unproductive rounds) reports more.
        let compiled = CompiledProgram::compile(&nonlinear_tc()).unwrap();
        let store = crate::engine::edb_from_instance(&chain_db(3));
        let (result, stats) = compiled.run_on_store_with_stats(store, &EvalOptions::default());
        assert_eq!(result.len(Predicate::new("path", 2)), 6);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.index_extensions, 4);
    }

    #[test]
    fn store_generation_counts_only_new_tuples() {
        let mut store = RelationStore::new();
        let p = Predicate::new("p", 1);
        assert_eq!(store.generation(), 0);
        assert!(store.insert(p, [cqa_core::symbol::Symbol::new("a")]));
        assert!(!store.insert(p, [cqa_core::symbol::Symbol::new("a")]));
        assert!(store.insert(p, [cqa_core::symbol::Symbol::new("b")]));
        assert_eq!(store.generation(), 2);
    }
}
