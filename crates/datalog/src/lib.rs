//! # cqa-datalog
//!
//! Datalog with stratified negation: abstract syntax, stratification and
//! linearity analysis, a bottom-up semi-naive engine with built-in
//! constraints, and the generator of the **linear** Datalog program of
//! Lemma 14 that solves `CERTAINTY(q)` for path queries satisfying C2.
//!
//! # The demand pipeline
//!
//! The certainty check only inspects the `o/1` goal predicate, so generated
//! programs pass through [`demand::transform`] before plan compilation
//! (knob: [`demand::Demand`] in [`parallel::EvalOptions`], environment
//! override `PATH_CQA_DEMAND=off|magic`), in two stages:
//!
//! 1. **Prune** — rules whose head cannot reach the goal in the dependency
//!    graph are dropped; applies to any stratified program, and is the
//!    fallback when stage 2 cannot apply.
//! 2. **Magic** — eligible predicates are guarded behind `magic$…` demand
//!    predicates seeded from the goal's bound arguments (sideways
//!    information passing), so whole cones of irrelevant tuples are never
//!    derived. Negated predicates are restricted too when a per-stratum
//!    hazard analysis proves it safe — their negative occurrences then emit
//!    demand from the enclosing rule's positive literals; only negations
//!    whose restriction could break stratification keep their dependency
//!    cone exempt (see [`demand`] for the full argument).
//!
//! Both stages preserve the goal extension exactly; the transformed program
//! is generally *not* linear, which the engine never requires. The
//! [`plan_cache::PlanCache`] caches the transformed program and its
//! compiled plan as a unit, keyed by the *untransformed* program plus the
//! demand mode, so warm program generation skips the rewrite and the join
//! planner entirely.
//!
//! # Kernel selection
//!
//! Orthogonally to demand, plan compilation runs a per-rule *kernel
//! selection* pass: rules in the unary/binary fragment (all of the generated
//! CQA programs) are additionally translated to shape-specialized kernels —
//! columnar `(u32, u32)` scans, CSR-adjacency and sort-merge joins, bitset
//! membership — while ineligible rules keep the generic hash-join plan. The
//! selection is recorded in the compiled program (and therefore cached by
//! [`plan_cache::PlanCache`] as usual); whether kernels *execute* is decided
//! per run by [`parallel::Kernels`] in [`parallel::EvalOptions`]
//! (environment override `PATH_CQA_KERNELS=off|on`), and
//! [`parallel::EvalStats`] reports the kernel/generic split per run.
//!
//! ```
//! use cqa_core::prelude::*;
//! use cqa_datalog::prelude::*;
//!
//! let q = PathQuery::parse("RRX").unwrap();
//! let dec = b2b_strict_decomposition(q.word()).unwrap();
//! // The untransformed Lemma 14 program is linear (the NL upper bound)…
//! let plain = generate_program_with_options(&dec, q.word(), PlanCache::global(), Demand::Off)
//!     .unwrap();
//! assert!(is_linear(&plain.program));
//! // …and the demand-transformed default trades linearity for
//! // goal-directedness.
//! let cqa = generate_program(&dec, q.word()).unwrap();
//! assert!(stratify(&cqa.program).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cqa_program;
pub mod demand;
pub mod engine;
mod fxhash;
mod kernel;
pub mod maintain;
pub mod parallel;
mod plan;
pub mod plan_cache;
pub mod reference;
pub mod store;
pub mod stratify;
pub mod tuple;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::ast::{
        BodyLiteral, Builtin, DlAtom, DlTerm, Predicate, Program, Rule, RuleVars,
    };
    pub use crate::cqa_program::{
        generate_program, generate_program_with_cache, generate_program_with_options, CqaProgram,
    };
    pub use crate::demand::{transform as demand_transform, Demand, DemandMode, DemandReport};
    pub use crate::engine::{evaluate, CompiledProgram, Evaluator};
    pub use crate::maintain::{MaintainVerdict, MaintainedIdb};
    pub use crate::parallel::{Checkpoint, EvalOptions, EvalStats, Kernels, Maintain, Threads};
    pub use crate::plan_cache::PlanCache;
    pub use crate::reference::evaluate_scan;
    pub use crate::store::{
        edb_base_from_instance, edb_from_instance, edb_overlay_on, BaseStore, PredId, PredTable,
        RelationStore, Tuples, UnaryView,
    };
    pub use crate::stratify::{is_linear, stratify, Stratification, StratifyError};
    pub use crate::tuple::Tuple;
    pub use cqa_core::regex_forms::b2b_strict_decomposition;
}
