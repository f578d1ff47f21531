//! The differential harness for demand-driven derivation.
//!
//! Three layers of oracle pin the demand transformation
//! (`cqa_datalog::demand`) to the trusted engines:
//!
//! * **Goal agreement** — on ≥ 200 random stratified program/instance pairs,
//!   the goal predicate's extension under `Off` and `Magic` is identical to
//!   the scan-based reference engine's extension of the *untransformed*
//!   program. (Only the goal is contractual: non-goal predicates may
//!   legitimately shrink.)
//! * **Work regression** — on goal-sparse programs (a seeded walk over a long
//!   chain), `EvalStats::tuples_derived` strictly drops from `Off` to
//!   `Magic`; the transformation must actually save derivations, not just
//!   preserve answers.
//! * **End-to-end oracle** — the paper's Figure 2/6 instances for `RRX`,
//!   decided through `CertaintySession`s pinned to each demand mode, agree
//!   with the naive repair-enumeration oracle; and a mixed batched workload
//!   produces byte-identical certain-answer bitmaps at every (mode, threads)
//!   combination.

mod common;

use std::collections::BTreeSet;

use common::ProgramGen;
use cqa_datalog::prelude::*;
use cqa_db::instance::DatabaseInstance;
use cqa_solver::prelude::*;
use cqa_workloads::figures::{figure_2, figure_2_query, figure_6};
use cqa_workloads::random::{repeated_query_requests, RandomInstanceConfig};

/// One relation's extension as a canonical set of string tuples.
fn relation_set(store: &RelationStore, pred: Predicate) -> BTreeSet<Vec<String>> {
    store
        .iter_relations()
        .filter(|(p, _)| *p == pred)
        .flat_map(|(_, tuples)| {
            tuples
                .iter()
                .map(|t| t.iter().map(|s| s.to_string()).collect())
        })
        .collect()
}

#[test]
fn demand_modes_preserve_the_goal_on_random_programs() {
    let mut checked = 0;
    let mut restricted_somewhere = 0u64;
    for program_seed in 0..50u64 {
        let mut gen = ProgramGen::new(0xD316 + program_seed);
        let program = gen.program();
        // The highest-sorting IDB predicate is deterministic and, by the
        // generator's leveled naming, tends to sit in the top stratum — the
        // most interesting goal for reachability pruning.
        let goal = *program
            .idb_predicates()
            .last()
            .expect("generated programs have IDB rules");
        for instance_seed in 0..4u64 {
            let db = RandomInstanceConfig::new(
                "RS",
                5,
                6 + (instance_seed as usize) * 5,
                0xDB + program_seed * 31 + instance_seed,
            )
            .generate();
            let reference = evaluate_scan(&program, &db)
                .unwrap_or_else(|e| panic!("scan engine failed: {e}\n{program}"));
            let expected = relation_set(&reference, goal);
            for mode in [DemandMode::Off, DemandMode::Magic] {
                let (transformed, report) = demand_transform(&program, goal, mode);
                restricted_somewhere += report.restricted_predicates;
                let compiled = CompiledProgram::compile(&transformed).unwrap_or_else(|e| {
                    panic!("{mode}-transformed program failed to compile: {e}\n{transformed}")
                });
                let store = compiled.run(&db);
                assert_eq!(
                    relation_set(&store, goal),
                    expected,
                    "goal {goal} under {mode} disagrees with the reference (program seed \
                     {program_seed}, instance seed {instance_seed})\n\
                     original:\n{program}\ntransformed:\n{transformed}"
                );
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 200,
        "need at least 200 agreement pairs, got {checked}"
    );
    assert!(
        restricted_somewhere > 0,
        "the magic stage never restricted anything across the whole suite — \
         the harness is not exercising stage 2"
    );
}

/// A seeded walk over a long chain: `goal` needs only the suffix reachable
/// from the seed, while the unrestricted program closes the full quadratic
/// transitive closure. The sparse/full derivation gap is what demand
/// transformation exists to exploit.
fn goal_sparse_program() -> (Program, Predicate) {
    let atom = |name: &str, vars: &[&str]| {
        DlAtom::new(
            Predicate::new(name, vars.len()),
            vars.iter().map(|v| DlTerm::var(v)).collect(),
        )
    };
    let pos = |name: &str, vars: &[&str]| BodyLiteral::Positive(atom(name, vars));
    let mut p = Program::new();
    p.declare_edb(Predicate::new("E", 2));
    p.declare_edb(Predicate::new("seed", 2));
    p.add_rule(Rule::new(
        atom("path", &["X", "Y"]),
        vec![pos("E", &["X", "Y"])],
    ));
    p.add_rule(Rule::new(
        atom("path", &["X", "Z"]),
        vec![pos("path", &["X", "Y"]), pos("E", &["Y", "Z"])],
    ));
    p.add_rule(Rule::new(
        atom("goal", &["Y"]),
        vec![pos("seed", &["X", "X2"]), pos("path", &["X", "Y"])],
    ));
    (p, Predicate::new("goal", 1))
}

#[test]
fn tuples_derived_strictly_drops_on_goal_sparse_programs() {
    let (program, goal) = goal_sparse_program();
    let mut db = DatabaseInstance::new();
    let n = 60;
    for i in 0..n {
        db.insert_parsed("E", &format!("n{i}"), &format!("n{}", i + 1));
    }
    // Seed near the end of the chain: the demanded cone is a short suffix.
    db.insert_parsed("seed", &format!("n{}", n - 5), &format!("n{}", n - 5));

    let derived = |mode: DemandMode| -> (u64, BTreeSet<Vec<String>>) {
        let (transformed, _) = demand_transform(&program, goal, mode);
        let compiled = CompiledProgram::compile(&transformed).unwrap();
        let (store, stats) =
            compiled.run_on_store_with_stats(edb_from_instance(&db), &EvalOptions::sequential());
        assert!(stats.tuples_derived > 0, "{mode}: nothing derived");
        (stats.tuples_derived, relation_set(&store, goal))
    };
    let (off, off_goal) = derived(DemandMode::Off);
    let (magic, magic_goal) = derived(DemandMode::Magic);
    assert_eq!(off_goal, magic_goal);
    // The magic rewrite must strictly cut the derivation count: the full
    // closure is Θ(n²) while the demanded cone is the seed's suffix.
    assert!(
        magic < off,
        "magic derived {magic} tuples, no fewer than demand-off's {off}"
    );
    assert!(
        magic * 4 < off,
        "magic derived {magic} of {off} tuples — the cut should be drastic \
         on a length-{n} chain seeded 5 from the end"
    );
}

#[test]
fn figure_instances_agree_with_the_naive_oracle_across_modes() {
    // End-to-end spot check on the paper's own instances: RRX through the
    // Datalog NL route under each demand mode, against the naive
    // repair-enumeration oracle.
    let query = figure_2_query();
    let naive = NaiveSolver::with_limit(1 << 16);
    for (name, db) in [("figure_2", figure_2()), ("figure_6", figure_6())] {
        let expected = naive.certain(&query, &db).unwrap();
        for demand in [Demand::Off, Demand::Magic] {
            let session = CertaintySession::with_options(
                NlBackend::Datalog,
                EvalOptions::sequential().with_demand(demand),
            );
            assert_eq!(
                session.certain(&query, &db).unwrap(),
                expected,
                "{name} under {:?} disagrees with the naive oracle",
                demand
            );
        }
    }
}

#[test]
fn certain_batch_bitmaps_are_identical_across_demand_modes_and_threads() {
    // A mixed workload covering FO, NL-Datalog and PTIME routes: the answer
    // bitmap must be byte-identical at every (demand, threads) combination.
    let requests = repeated_query_requests(&["RXRX", "RRX", "RXRY", "RXRYRY"], 6, 3, 0xDE3A);
    let bitmap = |demand: Demand, threads: usize| -> Vec<u8> {
        let session = CertaintySession::with_options(
            NlBackend::Datalog,
            EvalOptions::with_threads(threads).with_demand(demand),
        );
        let answers = session.certain_batch(&requests);
        let mut bytes = vec![0u8; requests.len().div_ceil(8)];
        for (i, answer) in answers.iter().enumerate() {
            let certain = *answer.as_ref().unwrap_or_else(|e| {
                panic!("request {i} failed under {demand:?} at {threads} threads: {e}");
            });
            bytes[i / 8] |= (certain as u8) << (i % 8);
        }
        bytes
    };
    let reference = bitmap(Demand::Off, 1);
    assert!(reference.iter().any(|&b| b != 0), "degenerate workload");
    for demand in [Demand::Off, Demand::Magic] {
        for threads in [1usize, 2, 8] {
            assert_eq!(
                bitmap(demand, threads),
                reference,
                "bitmap under {demand:?} at {threads} threads differs from demand-off sequential"
            );
        }
    }
}
