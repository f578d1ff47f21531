//! E19: demand-driven derivation — off vs magic.
//!
//! Three workloads, each evaluated under every [`Demand`] setting so
//! `BENCH_datalog.json` records what the transformation buys (or costs):
//!
//! * `tc_chain` — the textbook magic-sets win, isolated to the engine: a
//!   goal seeded near the end of a long chain whose unrestricted program
//!   closes the full Θ(n²) transitive closure while the demanded cone walks
//!   a short suffix. This bounds the *possible* win on goal-sparse shapes.
//! * `cqa_rrx` — a warm session answering single `RRX` requests through the
//!   Datalog NL route on a layered instance: the generated Lemma 14 programs
//!   are goal-dense (the certainty check consults `o/1` over the whole
//!   active domain), so this measures what demand transformation costs when
//!   there is little to skip — the honest flip side.
//! * `family` — the serving shape: 16-request shared-prefix family batches
//!   at ~10^3 and ~10^4 prefix facts through
//!   `CertaintySession::certain_batch_family`, per demand setting.
//!
//! Answers are pinned mode-independent by `tests/demand_agreement.rs`; these
//! entries only decide which setting `Demand::Auto` should default to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cqa_core::query::PathQuery;
use cqa_datalog::prelude::*;
use cqa_db::instance::DatabaseInstance;
use cqa_solver::prelude::*;
use cqa_workloads::random::{shared_prefix_families, LayeredConfig};

const MODES: [(&str, Demand); 2] = [("off", Demand::Off), ("magic", Demand::Magic)];

/// Largest prefix instance; `CQA_BENCH_MAX_FACTS` caps it so the CI smoke
/// run stays at ~10^3 facts.
fn max_facts() -> usize {
    std::env::var("CQA_BENCH_MAX_FACTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
}

/// Transitive closure over a chain with a `goal` seeded 5 nodes from the
/// end — the goal-sparse shape stage 2 exists for.
fn tc_chain_program() -> (Program, Predicate) {
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

fn chain_db(n: usize) -> DatabaseInstance {
    let mut db = DatabaseInstance::new();
    for i in 0..n {
        db.insert_parsed("E", &format!("n{i}"), &format!("n{}", i + 1));
    }
    db.insert_parsed("seed", &format!("n{}", n - 5), &format!("n{}", n - 5));
    db
}

fn bench_demand_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("demand_transform");
    group.sample_size(10);

    // Engine-level: goal-sparse transitive closure, transformed once,
    // evaluated per iteration.
    let (tc, tc_goal) = tc_chain_program();
    let tc_db = chain_db(1000.min(max_facts()));
    for (name, demand) in MODES {
        let (transformed, _) = demand_transform(&tc, tc_goal, demand.resolve());
        let compiled = CompiledProgram::compile(&transformed).expect("tc compiles");
        group.bench_with_input(BenchmarkId::new("tc_chain", name), &tc_db, |b, db| {
            b.iter(|| {
                let store = compiled.run_with(db, &EvalOptions::sequential());
                black_box(store.generation())
            })
        });
    }

    // Route-level: warm single-request RRX certainty on a layered instance.
    let query = PathQuery::parse("RRX").unwrap();
    let rrx_db =
        LayeredConfig::for_word(query.word(), 270.min(max_facts() / 4 + 1), 0xDE3A).generate();
    for (name, demand) in MODES {
        let session = CertaintySession::with_options(
            NlBackend::Datalog,
            EvalOptions::sequential().with_demand(demand),
        );
        session.certain(&query, &rrx_db).unwrap(); // warm the plan
        group.bench_with_input(BenchmarkId::new("cqa_rrx", name), &rrx_db, |b, db| {
            b.iter(|| black_box(session.certain(&query, db).unwrap()))
        });
    }

    // Serving-level: shared-prefix family batches at ~10^3 and ~10^4 facts.
    for width in [270usize, 2700] {
        let family = shared_prefix_families(query.word(), width, 16, 0.1, 0xC0_FFA);
        if family.prefix().len() > max_facts() {
            continue;
        }
        for (name, demand) in MODES {
            let session = CertaintySession::with_options(
                NlBackend::Datalog,
                EvalOptions::sequential().with_demand(demand),
            );
            let id = format!("{}f_{}", family.prefix().len(), name);
            group.bench_with_input(BenchmarkId::new("family", &id), &family, |b, family| {
                b.iter(|| {
                    let answers = session.certain_batch_family(&query, family);
                    black_box(answers.iter().filter(|a| *a.as_ref().unwrap()).count())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_demand_transform);
criterion_main!(benches);
