//! The differential harness for shape-specialized kernels.
//!
//! Kernel selection (`cqa_datalog`'s per-rule translation to columnar
//! scan/CSR-join/bitset kernels) is a pure execution-strategy change: it must
//! never alter what is derived. Three layers of oracle pin that:
//!
//! * **Full-store agreement** — on ≥ 200 random stratified program/instance
//!   pairs, evaluation with kernels on and off produces the *same complete
//!   store* (every predicate, not just a goal), identical to the scan-based
//!   reference engine.
//! * **Selection coverage** — the generated CQA programs live in the
//!   unary/binary fragment, so compilation must select kernels for some rules
//!   (`EvalStats::kernel_rules > 0`) and actually execute them
//!   (`kernel_invocations > 0`); with `Kernels::Off` the same compiled plan
//!   reports zero kernel work and every rule as generic.
//! * **End-to-end bitmaps** — a mixed batched certain-answer workload
//!   produces byte-identical bitmaps at every (kernels, threads, demand)
//!   combination.

mod common;

use std::collections::BTreeSet;

use common::ProgramGen;
use cqa_datalog::prelude::*;
use cqa_solver::prelude::*;
use cqa_workloads::figures::{figure_2, figure_2_query};
use cqa_workloads::random::{repeated_query_requests, RandomInstanceConfig};

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

#[test]
fn kernel_runs_agree_with_generic_and_reference_on_random_programs() {
    let mut checked = 0;
    let mut kernels_selected = 0u64;
    for program_seed in 0..50u64 {
        let mut gen = ProgramGen::new(0x5E1EC7 + program_seed);
        let program = gen.program();
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
            let expected = store_set(&reference);
            let compiled = CompiledProgram::compile(&program)
                .unwrap_or_else(|e| panic!("compile failed: {e}\n{program}"));
            for kernels in [Kernels::Off, Kernels::On] {
                let options = EvalOptions::default().with_kernels(kernels);
                let (store, stats) =
                    compiled.run_on_store_with_stats(edb_from_instance(&db), &options);
                assert_eq!(
                    store_set(&store),
                    expected,
                    "store under {kernels:?} disagrees with the reference (program seed \
                     {program_seed}, instance seed {instance_seed})\n{program}"
                );
                match kernels {
                    Kernels::Off => {
                        assert_eq!(stats.kernel_rules, 0, "kernels off but rules attributed");
                        assert_eq!(stats.kernel_invocations, 0, "kernels off but invoked");
                    }
                    _ => kernels_selected += stats.kernel_rules,
                }
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 200,
        "need at least 200 agreement pairs, got {checked}"
    );
    assert!(
        kernels_selected > 0,
        "kernel selection never fired across the whole suite — \
         the harness is not exercising the specialized path"
    );
}

#[test]
fn generated_cqa_programs_select_and_execute_kernels() {
    // The Lemma 14 programs are purely unary/binary: the selection pass must
    // put some rules on the specialized path, and toggling the runtime knob
    // must flip the attribution without changing the store.
    let query = figure_2_query();
    let dec = b2b_strict_decomposition(query.word()).expect("RRX decomposes");
    let cqa = generate_program(&dec, query.word()).expect("program generation");
    let db = figure_2();

    let run = |kernels: Kernels| {
        let options = EvalOptions::sequential().with_kernels(kernels);
        cqa.compiled
            .run_on_store_with_stats(edb_from_instance(&db), &options)
    };
    let (store_on, on) = run(Kernels::On);
    let (store_off, off) = run(Kernels::Off);

    assert!(
        on.kernel_rules > 0,
        "no kernel selected on a generated CQA program: {on:?}"
    );
    assert!(
        on.kernel_invocations > 0,
        "kernels selected but never executed: {on:?}"
    );
    assert_eq!(off.kernel_rules, 0);
    assert_eq!(off.kernel_invocations, 0);
    // The selection is a compile-time property; the knob only moves rules
    // between the two attribution buckets.
    assert_eq!(off.generic_rules, on.kernel_rules + on.generic_rules);
    assert_eq!(store_set(&store_on), store_set(&store_off));
    assert_eq!(on.tuples_derived, off.tuples_derived);
    assert_eq!(on.rounds, off.rounds);
}

#[test]
fn certain_batch_bitmaps_are_identical_across_kernel_modes_and_threads() {
    // A mixed workload covering FO, NL-Datalog and PTIME routes: the answer
    // bitmap must be byte-identical at every (kernels, threads, demand)
    // combination.
    let requests = repeated_query_requests(&["RXRX", "RRX", "RXRY", "RXRYRY"], 6, 3, 0x6E12);
    let bitmap = |kernels: Kernels, threads: usize, demand: Demand| -> Vec<u8> {
        let session = CertaintySession::with_options(
            NlBackend::Datalog,
            EvalOptions::with_threads(threads)
                .with_demand(demand)
                .with_kernels(kernels),
        );
        let answers = session.certain_batch(&requests);
        let mut bytes = vec![0u8; requests.len().div_ceil(8)];
        for (i, answer) in answers.iter().enumerate() {
            let certain = *answer.as_ref().unwrap_or_else(|e| {
                panic!("request {i} failed under {kernels:?} at {threads} threads: {e}");
            });
            bytes[i / 8] |= (certain as u8) << (i % 8);
        }
        bytes
    };
    let reference = bitmap(Kernels::Off, 1, Demand::Off);
    assert!(reference.iter().any(|&b| b != 0), "degenerate workload");
    for kernels in [Kernels::Off, Kernels::On] {
        for threads in [1usize, 2, 8] {
            for demand in [Demand::Off, Demand::Magic] {
                assert_eq!(
                    bitmap(kernels, threads, demand),
                    reference,
                    "bitmap under {kernels:?}/{demand:?} at {threads} threads differs \
                     from kernels-off sequential"
                );
            }
        }
    }
}
