//! Property test: the indexed Datalog engine and the retained scan-based
//! reference engine derive **identical** relation stores on random stratified
//! programs over random instances.
//!
//! Programs come from the shared level-by-level generator in
//! `tests/common/mod.rs` (stratified and safe by construction); instances
//! come from the seeded generators in `cqa_workloads::random`.

mod common;

use common::ProgramGen;
use cqa_datalog::prelude::*;
use cqa_workloads::random::RandomInstanceConfig;

#[test]
fn indexed_engine_agrees_with_scan_reference_on_random_programs() {
    let mut checked = 0;
    for program_seed in 0..50u64 {
        let mut gen = ProgramGen::new(0xA6BEE + program_seed);
        let program = gen.program();
        assert!(program.is_safe(), "generator must produce safe programs");
        for instance_seed in 0..4u64 {
            let db = RandomInstanceConfig::new(
                "RS",
                5,
                6 + (instance_seed as usize) * 5,
                0xDB + program_seed * 31 + instance_seed,
            )
            .generate();
            let indexed = evaluate(&program, &db)
                .unwrap_or_else(|e| panic!("indexed engine failed: {e}\n{program}"));
            let scanned = evaluate_scan(&program, &db)
                .unwrap_or_else(|e| panic!("scan engine failed: {e}\n{program}"));
            assert_eq!(
                indexed, scanned,
                "engines disagree (program seed {program_seed}, instance seed \
                 {instance_seed})\nprogram:\n{program}\ninstance: {db:?}"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 200,
        "need at least 200 agreement pairs, got {checked}"
    );
}

#[test]
fn plan_cache_cold_and_warm_runs_derive_identical_stores() {
    // Every random program goes through a plan cache twice: the cold pass
    // compiles, the warm pass must hand back the *same* compiled plan (by
    // pointer) and derive an identical store — and both must agree with a
    // fresh compile-and-run.
    let cache = PlanCache::new();
    let mut warm_runs = 0;
    for program_seed in 0..12u64 {
        let mut gen = ProgramGen::new(0xCAC4E + program_seed);
        let program = gen.program();
        let db = RandomInstanceConfig::new("RS", 5, 16, 0xD0 + program_seed).generate();
        let cold_plan = cache.get_or_compile(&program).unwrap();
        let cold = cold_plan.run(&db);
        let warm_plan = cache.get_or_compile(&program).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&cold_plan, &warm_plan),
            "warm lookup must reuse the cold compilation (seed {program_seed})"
        );
        let warm = warm_plan.run(&db);
        assert_eq!(
            cold, warm,
            "cold and warm runs disagree (seed {program_seed})\n{program}"
        );
        let fresh = evaluate(&program, &db).unwrap();
        assert_eq!(
            cold, fresh,
            "cached and fresh compilations disagree (seed {program_seed})\n{program}"
        );
        warm_runs += 1;
    }
    assert_eq!(cache.misses(), warm_runs);
    assert_eq!(cache.hits(), warm_runs);
    assert_eq!(cache.len(), warm_runs as usize);
}

#[test]
fn engines_agree_on_generated_cqa_programs() {
    // The real workload: the linear Lemma 14 programs over random instances.
    use cqa_core::query::PathQuery;

    for word in ["RRX", "RXRY", "UVUVWV"] {
        let q = PathQuery::parse(word).unwrap();
        let Some(dec) = b2b_strict_decomposition(q.word()) else {
            continue;
        };
        let Some(cqa) = generate_program(&dec, q.word()) else {
            continue;
        };
        for seed in 0..10u64 {
            let db = RandomInstanceConfig::new(
                if word == "UVUVWV" { "UVW" } else { "RXY" },
                5,
                12,
                0xCAA + seed,
            )
            .generate();
            let indexed = cqa.compiled.run(&db);
            let scanned = evaluate_scan(&cqa.program, &db).unwrap();
            assert_eq!(indexed, scanned, "disagreement on {word}, seed {seed}");
        }
    }
}
