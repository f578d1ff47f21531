//! The differential harness for checkpointed base derivation.
//!
//! A checkpoint pre-evaluates the monotone, EDB-only-dependent strata of a
//! compiled program into a frozen base exactly once; per-request evaluation
//! then resumes semi-naive with the overlay as the initial delta. That is a
//! pure execution-strategy change — it must never alter what is derived.
//! Three layers of oracle pin it:
//!
//! * **Full-store agreement** — on ≥ 200 random stratified program/instance
//!   pairs split into a frozen prefix plus an overlay delta, the
//!   checkpoint-resumed store equals the from-scratch compiled store equals
//!   the scan-based reference engine, with kernels on and off.
//! * **Resume accounting** — on generated CQA programs the resumed run
//!   reports `checkpoint_hits > 0` and derives strictly fewer tuples than
//!   from scratch, while `Checkpoint::Off` routes around the checkpoint
//!   entirely.
//! * **End-to-end bitmaps** — batched certain answers over shared-prefix
//!   families are byte-identical at every (checkpoint, demand, kernels,
//!   threads) combination, including after interleaved live APPEND/RETRACT
//!   mutations of the family's deltas over the *same* resident base.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::ProgramGen;
use cqa_core::query::PathQuery;
use cqa_datalog::prelude::*;
use cqa_db::family::InstanceFamily;
use cqa_db::instance::DatabaseInstance;
use cqa_solver::prelude::*;
use cqa_workloads::random::{shared_prefix_families, RandomInstanceConfig};

/// The complete store as a canonical set of (predicate, tuple) strings.
fn store_set(store: &RelationStore) -> BTreeSet<(String, Vec<String>)> {
    store
        .iter_relations()
        .flat_map(|(p, tuples)| {
            let name = format!("{}/{}", p.name, p.arity);
            tuples
                .iter()
                .map(move |t| (name.clone(), t.iter().map(|s| s.to_string()).collect()))
        })
        .collect()
}

/// Splits an instance into a prefix holding roughly `keep_percent` of the
/// facts (the part frozen and checkpointed) and a delta with the rest (the
/// per-request overlay).
fn split(db: &DatabaseInstance, keep_percent: usize) -> (DatabaseInstance, DatabaseInstance) {
    let facts = db.facts();
    let cut = facts.len() * keep_percent / 100;
    let prefix = DatabaseInstance::from_facts(facts[..cut].iter().copied());
    let delta = DatabaseInstance::from_facts(facts[cut..].iter().copied());
    (prefix, delta)
}

#[test]
fn checkpoint_resumed_runs_agree_with_scratch_and_reference_on_random_programs() {
    let mut checked = 0;
    let mut resumed_strata = 0u64;
    for program_seed in 0..50u64 {
        let mut gen = ProgramGen::new(0xC4EC4 + program_seed);
        let program = gen.program();
        for instance_seed in 0..4u64 {
            let db = RandomInstanceConfig::new(
                "RS",
                5,
                8 + (instance_seed as usize) * 5,
                0x0DB + program_seed * 37 + instance_seed,
            )
            .generate();
            let reference = evaluate_scan(&program, &db)
                .unwrap_or_else(|e| panic!("scan engine failed: {e}\n{program}"));
            let expected = store_set(&reference);
            let compiled = CompiledProgram::compile(&program)
                .unwrap_or_else(|e| panic!("compile failed: {e}\n{program}"));
            // Vary the split so both delta-heavy and prefix-heavy overlays
            // are exercised (0% prefix degenerates to "everything is
            // delta", 100% to "the checkpoint already holds the fixpoint").
            let keep = [0usize, 50, 80, 100][(instance_seed % 4) as usize];
            let (prefix, delta) = split(&db, keep);
            let base = edb_base_from_instance(&prefix);
            let checkpointed = compiled.checkpoint_base(&base);
            for kernels in [Kernels::Off, Kernels::On] {
                let options = EvalOptions::default().with_kernels(kernels);
                let (resumed, stats) = compiled
                    .resume_on_store_with_stats(edb_overlay_on(&checkpointed, &delta), &options);
                assert_eq!(
                    store_set(&resumed),
                    expected,
                    "checkpoint-resumed store under {kernels:?} disagrees with the scan \
                     reference (program seed {program_seed}, instance seed {instance_seed}, \
                     prefix {keep}%)\n{program}"
                );
                resumed_strata += stats.checkpoint_hits;
                // From-scratch compiled evaluation on the raw base must
                // agree too (same options; exercises the overlay path
                // the solver uses with Checkpoint::Off).
                let (scratch, _) =
                    compiled.run_on_store_with_stats(edb_overlay_on(&base, &delta), &options);
                assert_eq!(
                    store_set(&scratch),
                    expected,
                    "from-scratch store disagrees (program seed {program_seed}, \
                     instance seed {instance_seed})\n{program}"
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
        resumed_strata > 0,
        "no stratum was ever resumed from a checkpoint across the whole suite — \
         the harness is not exercising the resume path"
    );
}

#[test]
fn generated_cqa_programs_resume_and_save_derivation_work() {
    // A generated CQA program's monotone strata (the key_R closure and the
    // magic-seeded demand predicates' monotone parts) are checkpointable;
    // the negation-dependent strata (terminal/uvpath/p/o) re-run per
    // request. Resuming must report hits, skip the prefix-determined
    // derivations, and produce the identical store.
    let query = PathQuery::parse("RRX").expect("query");
    let dec = b2b_strict_decomposition(query.word()).expect("RRX decomposes");
    let cqa = generate_program(&dec, query.word()).expect("program generation");
    assert!(
        cqa.compiled.has_checkpointable_strata(),
        "generated CQA programs must have checkpointable strata"
    );

    let family = shared_prefix_families(query.word(), 40, 4, 0.1, 0xFEED);
    let base = edb_base_from_instance(family.prefix());
    let checkpointed = cqa.compiled.checkpoint_base(&base);
    let options = EvalOptions::sequential();
    for delta in family.deltas() {
        let (scratch, scratch_stats) = cqa
            .compiled
            .run_on_store_with_stats(edb_overlay_on(&base, delta), &options);
        let (resumed, resumed_stats) = cqa
            .compiled
            .resume_on_store_with_stats(edb_overlay_on(&checkpointed, delta), &options);
        assert_eq!(store_set(&resumed), store_set(&scratch));
        assert!(
            resumed_stats.checkpoint_hits > 0,
            "no stratum resumed: {resumed_stats:?}"
        );
        assert_eq!(
            scratch_stats.checkpoint_hits, 0,
            "plain runs must not resume"
        );
        assert!(
            resumed_stats.tuples_derived < scratch_stats.tuples_derived,
            "resuming from the checkpoint must skip prefix-determined derivations \
             ({} resumed vs {} scratch)",
            resumed_stats.tuples_derived,
            scratch_stats.tuples_derived
        );
    }
}

#[test]
fn certain_family_bitmaps_are_identical_across_checkpoint_modes() {
    // Shared-prefix family traffic across the tetrachotomy's routes; the
    // answer bitmap must be byte-identical at every (checkpoint, demand,
    // kernels, threads) combination. Between batches the deltas are mutated
    // as live APPEND/RETRACT would (same resident base, rebuilt family), so
    // the bitmaps also pin the mutate-then-resume path.
    let words = ["RRX", "RXRY", "RXRX", "RXRYRY"];
    let word = cqa_core::word::Word::from_letters("RXRYRY");
    let family = shared_prefix_families(&word, 30, 5, 0.2, 0xB17);

    // The mutated generation: append two fresh R-facts to delta 0, retract
    // the first fact of delta 1 — exactly what the server's APPEND/RETRACT
    // do to a resident tenant.
    let mut deltas = family.deltas().to_vec();
    let mut additions = DatabaseInstance::new();
    additions.insert_parsed("R", "mut1", "mut2");
    additions.insert_parsed("R", "mut2", "mut3");
    deltas[0] = deltas[0].union(&additions);
    let removed = deltas[1].facts()[0];
    deltas[1] =
        DatabaseInstance::from_facts(deltas[1].facts().iter().copied().filter(|f| *f != removed));
    let mutated = InstanceFamily::with_deltas(family.prefix().clone(), deltas);

    let bitmap = |maintain: Maintain,
                  checkpoint: Checkpoint,
                  demand: Demand,
                  kernels: Kernels,
                  threads: usize|
     -> Vec<u8> {
        let session = CertaintySession::with_options(
            NlBackend::Datalog,
            EvalOptions::with_threads(threads)
                .with_demand(demand)
                .with_kernels(kernels)
                .with_checkpoint(checkpoint)
                .with_maintain(maintain),
        );
        // One resident base serves both generations, as on the server.
        let base = edb_base_from_instance(family.prefix());
        let all: Vec<usize> = (0..family.len()).collect();
        let mut bits = Vec::new();
        for generation in [&family, &mutated] {
            for w in words {
                let q = PathQuery::parse(w).unwrap();
                for answer in session.certain_batch_family_resident(&q, generation, &base, &all) {
                    bits.push(answer.unwrap_or_else(|e| {
                        panic!("{w} failed under {checkpoint:?}/{demand:?}/{kernels:?}: {e}")
                    }));
                }
            }
        }
        let mut bytes = vec![0u8; bits.len().div_ceil(8)];
        for (i, &b) in bits.iter().enumerate() {
            bytes[i / 8] |= (b as u8) << (i % 8);
        }
        bytes
    };

    let reference = bitmap(Maintain::Off, Checkpoint::Off, Demand::Off, Kernels::Off, 1);
    assert!(reference.iter().any(|&b| b != 0), "degenerate workload");
    // The fresh-solver oracle on materialized instances, for both
    // generations: the resident/checkpointed path must match it bit for bit.
    let mut oracle = Vec::new();
    for generation in [&family, &mutated] {
        for w in words {
            let q = PathQuery::parse(w).unwrap();
            for answer in DispatchSolver::with_datalog_nl().certain_batch_family(&q, generation) {
                oracle.push(answer.expect("oracle"));
            }
        }
    }
    let mut oracle_bytes = vec![0u8; oracle.len().div_ceil(8)];
    for (i, &b) in oracle.iter().enumerate() {
        oracle_bytes[i / 8] |= (b as u8) << (i % 8);
    }
    assert_eq!(
        reference, oracle_bytes,
        "reference drifted from a fresh solver"
    );

    for maintain in [Maintain::Off, Maintain::On] {
        for checkpoint in [Checkpoint::Off, Checkpoint::On] {
            for demand in [Demand::Off, Demand::Magic] {
                for kernels in [Kernels::Off, Kernels::On] {
                    for threads in [1usize, 2, 8] {
                        assert_eq!(
                            bitmap(maintain, checkpoint, demand, kernels, threads),
                            reference,
                            "bitmap under {maintain:?}/{checkpoint:?}/{demand:?}/{kernels:?} at \
                             {threads} threads differs from maintain-off checkpoint-off sequential"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn long_retract_heavy_generation_sequences_agree_with_fresh_oracle() {
    // The differential harness for *maintained* residents: a long,
    // retract-heavy interleaved APPEND/RETRACT generation sequence over one
    // resident base, served by maintain-on and maintain-off sessions that
    // live across all generations (so the maintained IDB state is mutated
    // generation over generation, exactly like the server's registry), with
    // a fresh-load solver as the oracle at every step. The sequence
    // includes retract-then-re-append of the very same fact, the classic
    // DRed round-trip hazard.
    let word = cqa_core::word::Word::from_letters("RXRYRY");
    let words = ["RRX", "RXRYRY"];
    let family = shared_prefix_families(&word, 30, 5, 0.2, 0xD0D0);
    let prefix = family.prefix().clone();
    let mut deltas = family.deltas().to_vec();
    let base = edb_base_from_instance(&prefix);
    let all: Vec<usize> = (0..deltas.len()).collect();

    let session_on = CertaintySession::with_options(
        NlBackend::Datalog,
        EvalOptions::sequential().with_maintain(Maintain::On),
    );
    let session_off = CertaintySession::with_options(
        NlBackend::Datalog,
        EvalOptions::sequential().with_maintain(Maintain::Off),
    );

    let mut s = 0xD00Du64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    // Facts retracted in a previous generation, re-appended later.
    let mut retracted: Vec<(usize, cqa_db::fact::Fact)> = Vec::new();
    for generation in 0..10 {
        // Retract-heavy mutation: two retracts, then one append which every
        // other generation re-appends a previously retracted fact verbatim.
        for _ in 0..2 {
            let i = (next() % deltas.len() as u64) as usize;
            if deltas[i].facts().is_empty() {
                continue;
            }
            let victim = deltas[i].facts()[(next() % deltas[i].facts().len() as u64) as usize];
            deltas[i] = DatabaseInstance::from_facts(
                deltas[i].facts().iter().copied().filter(|f| *f != victim),
            );
            retracted.push((i, victim));
        }
        if generation % 2 == 0 && !retracted.is_empty() {
            let (i, fact) = retracted.remove(0);
            deltas[i] = deltas[i].union(&DatabaseInstance::from_facts(std::iter::once(fact)));
        } else {
            let i = (next() % deltas.len() as u64) as usize;
            let mut fresh = DatabaseInstance::new();
            fresh.insert_parsed("R", &format!("g{generation}a"), &format!("g{generation}b"));
            deltas[i] = deltas[i].union(&fresh);
        }

        let generation_family = InstanceFamily::with_deltas(prefix.clone(), deltas.clone());
        for w in words {
            let q = PathQuery::parse(w).unwrap();
            let on = session_on.certain_batch_family_resident(&q, &generation_family, &base, &all);
            let off =
                session_off.certain_batch_family_resident(&q, &generation_family, &base, &all);
            let oracle =
                DispatchSolver::with_datalog_nl().certain_batch_family(&q, &generation_family);
            for (request, ((a, b), c)) in on.into_iter().zip(off).zip(oracle).enumerate() {
                let expected = c.expect("oracle");
                assert_eq!(
                    a.expect("maintained answer"),
                    expected,
                    "maintained answer diverged ({w}, generation {generation}, request {request})"
                );
                assert_eq!(
                    b.expect("unmaintained answer"),
                    expected,
                    "unmaintained answer diverged ({w}, generation {generation}, \
                     request {request})"
                );
            }
        }
    }
    assert!(
        session_on.stats().demand.maintained_hits > 0,
        "the maintain-on session never served from the maintained IDB"
    );
    assert_eq!(
        session_off.stats().demand.maintained_hits,
        0,
        "the maintain-off session must never maintain"
    );
}

#[test]
fn checkpoints_are_cached_per_program_on_the_base() {
    // BaseStore::checkpoint builds each program's checkpointed variant once
    // and returns the cached Arc afterwards; index_builds folds the
    // variants' builds so the server's builds-once pins keep holding.
    let query = PathQuery::parse("RRX").expect("query");
    let dec = b2b_strict_decomposition(query.word()).expect("decomposes");
    let cqa = generate_program(&dec, query.word()).expect("program generation");
    let family = shared_prefix_families(query.word(), 20, 2, 0.2, 0xCAC4E);
    let base = edb_base_from_instance(family.prefix());

    let key = Arc::as_ptr(&cqa.compiled) as usize;
    let first = base.checkpoint(key, |raw| cqa.compiled.checkpoint_base(raw));
    let second = base.checkpoint(key, |raw| {
        panic!("cached checkpoint must not rebuild: {}", raw.index_builds())
    });
    assert!(Arc::ptr_eq(&first, &second), "checkpoint cache must hit");

    // Index builds on the checkpointed variant count toward the original base's
    // cumulative index builds (the registry reads only the original).
    let before = base.index_builds();
    let options = EvalOptions::sequential();
    let (_, stats) = cqa
        .compiled
        .resume_on_store_with_stats(edb_overlay_on(&first, &family.deltas()[0]), &options);
    assert!(stats.checkpoint_hits > 0);
    assert!(
        base.index_builds() >= before,
        "variant builds must fold into the base's total"
    );
}
