//! The differential harness for copy-on-write store layering and
//! family-batched certainty sessions.
//!
//! Three layers of oracle pin the shared-prefix path to the fresh-load one:
//!
//! * **Store agreement** — on ≥ 200 random stratified program × prefix/delta
//!   splits, evaluating on an overlay store (frozen base + O(delta) overlay)
//!   derives exactly the fact sets of a fresh load of the full instance.
//! * **Bitmap agreement** — on 200 random family workloads spanning the
//!   FO / NL / PTIME routes, `certain_batch_family` answers byte-identically
//!   to `certain_batch` over the materialized full instances, at 1, 2 and 8
//!   session threads.
//! * **Amortization** — `EvalStats::base_index_builds` proves the base's
//!   committed indexes are built exactly once per family: the first run over
//!   a shared base builds them, every sibling overlay run reports zero.

mod common;

use common::ProgramGen;
use cqa_core::query::PathQuery;
use cqa_datalog::prelude::*;
use cqa_db::instance::DatabaseInstance;
use cqa_solver::prelude::*;
use cqa_workloads::random::{shared_prefix_families, RandomInstanceConfig};

/// Splits an instance into a (prefix, delta) pair: fact `i` goes to the
/// prefix unless `i % modulus == 0`, and every fourth delta fact is *also*
/// kept in the prefix so the overlap-deduplication path is exercised.
fn split_instance(db: &DatabaseInstance, modulus: usize) -> (DatabaseInstance, DatabaseInstance) {
    let mut prefix = DatabaseInstance::new();
    let mut delta = DatabaseInstance::new();
    for (i, &fact) in db.facts().iter().enumerate() {
        if i % modulus == 0 {
            delta.insert(fact);
            if i % (4 * modulus) == 0 {
                prefix.insert(fact); // shared fact: present in both layers
            }
        } else {
            prefix.insert(fact);
        }
    }
    (prefix, delta)
}

#[test]
fn layered_stores_match_fresh_load_on_random_splits() {
    let mut checked = 0;
    for program_seed in 0..50u64 {
        let mut gen = ProgramGen::new(0xC0F_FEE + program_seed);
        let program = gen.program();
        let compiled = CompiledProgram::compile(&program)
            .unwrap_or_else(|e| panic!("compilation failed: {e}\n{program}"));
        for instance_seed in 0..4u64 {
            let db = RandomInstanceConfig::new(
                "RS",
                5,
                8 + (instance_seed as usize) * 6,
                0xBA5E + program_seed * 37 + instance_seed,
            )
            .generate();
            let (prefix, delta) = split_instance(&db, 2 + (instance_seed as usize % 3));
            assert_eq!(
                prefix.union(&delta),
                db,
                "split must partition the instance"
            );

            let fresh =
                compiled.run_on_store_with(edb_from_instance(&db), &EvalOptions::sequential());
            let base = edb_base_from_instance(&prefix);
            let layered = compiled
                .run_on_store_with(edb_overlay_on(&base, &delta), &EvalOptions::sequential());
            assert_eq!(
                layered, fresh,
                "layered/fresh disagreement (program seed {program_seed}, instance seed \
                 {instance_seed})\nprogram:\n{program}"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 200,
        "need at least 200 split-agreement pairs, got {checked}"
    );
}

#[test]
fn family_bitmaps_are_byte_identical_to_fresh_load() {
    // 200 random family workloads (50 seeds × 4 query routes: FO, two NL
    // words through the Datalog back-end, PTIME fixpoint). For each, the
    // shared-prefix bitmap must equal the materialized fresh-load bitmap at
    // 1, 2 and 8 threads.
    let words = ["RXRX", "RRX", "RXRY", "RXRYRY"];
    let mut workloads = 0;
    for seed in 0..50u64 {
        for (w, word) in words.iter().enumerate() {
            let query = PathQuery::parse(word).unwrap();
            let width = 3 + (seed as usize + w) % 4;
            let instances = 3 + (seed as usize) % 4;
            let ratio = [0.1, 0.25, 0.5][(seed as usize + w) % 3];
            let family = shared_prefix_families(
                query.word(),
                width,
                instances,
                ratio,
                0xFA4174 ^ (seed << 8) ^ w as u64,
            );
            let requests: Vec<(PathQuery, DatabaseInstance)> = (0..family.len())
                .map(|i| (query.clone(), family.materialize(i)))
                .collect();

            let bitmap = |answers: &[Result<bool, SolverError>]| -> Vec<u8> {
                let mut bytes = vec![0u8; answers.len().div_ceil(8)];
                for (i, answer) in answers.iter().enumerate() {
                    let certain = *answer
                        .as_ref()
                        .unwrap_or_else(|e| panic!("request {i} of {word} failed: {e}"));
                    bytes[i / 8] |= (certain as u8) << (i % 8);
                }
                bytes
            };

            let fresh_session =
                CertaintySession::with_options(NlBackend::Datalog, EvalOptions::sequential());
            let reference = bitmap(&fresh_session.certain_batch(&requests));
            for threads in [1usize, 2, 8] {
                let session = CertaintySession::with_options(
                    NlBackend::Datalog,
                    EvalOptions::with_threads(threads),
                );
                let shared = bitmap(&session.certain_batch_family(&query, &family));
                assert_eq!(
                    shared, reference,
                    "family bitmap differs from fresh-load ({word}, seed {seed}, \
                     {threads} threads, ratio {ratio})"
                );
            }
            workloads += 1;
        }
    }
    assert_eq!(workloads, 200, "the acceptance bar is 200 family workloads");
}

#[test]
fn base_indexes_are_built_exactly_once_per_family() {
    // The amortization the layering buys, pinned via EvalStats: the first
    // run over a family's shared base builds its committed (pred, mask)
    // indexes; every subsequent overlay run attaches them with zero builds.
    let query = PathQuery::parse("RRX").unwrap();
    let dec = b2b_strict_decomposition(query.word()).expect("RRX decomposes");
    let cqa = generate_program(&dec, query.word()).expect("RRX generates a program");
    let family = shared_prefix_families(query.word(), 30, 6, 0.2, 0x0001_DEA5);

    let base = edb_base_from_instance(family.prefix());
    assert_eq!(base.index_builds(), 0);
    let mut first_builds = 0;
    for (i, delta) in family.deltas().iter().enumerate() {
        let (_, stats) = cqa
            .compiled
            .run_on_store_with_stats(edb_overlay_on(&base, delta), &EvalOptions::sequential());
        if i == 0 {
            first_builds = stats.base_index_builds;
            assert!(
                first_builds > 0,
                "the CQA program probes EDB relations, so the first family \
                 run must build base indexes"
            );
        } else {
            assert_eq!(
                stats.base_index_builds, 0,
                "run {i} re-built base indexes instead of sharing the family's"
            );
        }
    }
    assert_eq!(
        base.index_builds(),
        first_builds,
        "the base's build counter must not grow after the first run"
    );

    // Fresh-load runs, by contrast, pay index construction per run: the
    // layered runs' per-run extension passes stay below the flat ones.
    let (_, flat_stats) = cqa.compiled.run_on_store_with_stats(
        edb_from_instance(&family.materialize(1)),
        &EvalOptions::sequential(),
    );
    let (_, layered_stats) = cqa.compiled.run_on_store_with_stats(
        edb_overlay_on(&base, &family.deltas()[1]),
        &EvalOptions::sequential(),
    );
    assert_eq!(layered_stats.base_index_builds, 0);
    assert!(flat_stats.index_extensions >= layered_stats.index_extensions);
}

#[test]
fn family_answers_agree_with_the_naive_oracle_on_small_families() {
    // End-to-end ground truth: tiny families where repair enumeration is
    // feasible.
    let naive = NaiveSolver::with_limit(1 << 14);
    let query = PathQuery::parse("RRX").unwrap();
    for seed in 0..8u64 {
        let family = shared_prefix_families(query.word(), 3, 4, 0.34, 0x0AC1E ^ (seed << 4));
        let session = CertaintySession::with_datalog_nl();
        let answers = session.certain_batch_family(&query, &family);
        for (i, answer) in answers.iter().enumerate() {
            let full = family.materialize(i);
            if full.repair_count() > 1 << 14 {
                continue;
            }
            assert_eq!(
                *answer.as_ref().unwrap(),
                naive.certain(&query, &full).unwrap(),
                "oracle mismatch at seed {seed}, request {i}"
            );
        }
    }
}

#[test]
fn family_codec_round_trips_through_the_session() {
    // A family serialized to the sectioned text format and parsed back
    // answers identically — the codec is how family fixtures are shipped.
    let query = PathQuery::parse("RXRY").unwrap();
    let family = shared_prefix_families(query.word(), 4, 3, 0.25, 0xC0DEC);
    let text = cqa_db::codec::family_to_text(&family);
    let parsed = cqa_db::codec::family_from_text(&text).unwrap();
    assert_eq!(family, parsed);
    let session = CertaintySession::with_datalog_nl();
    let a: Vec<bool> = session
        .certain_batch_family(&query, &family)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let b: Vec<bool> = session
        .certain_batch_family(&query, &parsed)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(a, b);
}
