//! The traced run: the same trace replayed in this process, layer by layer.
//!
//! Each command makes the public calls `cqa_server::server::execute` makes,
//! in the same order, on a registry and a session built the way
//! `cqa_server::server::start` builds them:
//!
//! * `LOAD`: `cqa_db::codec::family_from_text`, then `TenantRegistry::load`;
//! * `APPEND`/`RETRACT`: `cqa_db::codec::from_text`, then
//!   `TenantRegistry::mutate_delta` with the server's union/filter closures;
//! * `QUERY`: `PathQuery::parse`, `TenantRegistry::get`,
//!   `CertaintySession::certain_batch_family_resident_counted` over every
//!   request, then `TenantRegistry::record_derived`.
//!
//! When `server::execute` changes, this file must follow it.
//!
//! Every call is wrapped in a span (command id, name, start, end, parent).
//! Engine phases inside the session call are attributed from the deltas of
//! the process-wide `cqa_obs` span sums around it — exact, because the
//! replay is single-threaded. For routes that materialize `prefix ∪ delta`
//! (FO, PTIME, coNP), the materialization is timed by a separate
//! `InstanceFamily::materialize` call per request after the session call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cqa_core::classify::{classify, ComplexityClass};
use cqa_core::query::PathQuery;
use cqa_datalog::parallel::EvalOptions;
use cqa_db::instance::DatabaseInstance;
use cqa_obs::Span as Phase;
use cqa_server::registry::TenantRegistry;
use cqa_solver::nl_solver::NlBackend;
use cqa_solver::session::CertaintySession;

use crate::check::{self, Ledger};
use crate::wire::Outcome;
use crate::workload::{Class, Cmd, Op, Trace};

/// One recorded span. Engine phases carry their attributed duration only
/// (`start_ns` is `None`): they happen inside the session call, at times the
/// engine does not report.
#[derive(Debug)]
struct SpanRec {
    cmd: usize,
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: Option<u64>,
    dur_ns: u64,
}

/// Spans the session call's engine phases are attributed from. `classify`
/// wraps `plan_compile`; the derive spans wrap `stratum_eval` and
/// `index_build`. Only the outer ones are subtracted for session self time.
const OUTER_PHASES: [Phase; 5] = [
    Phase::Classify,
    Phase::ScratchDerive,
    Phase::CheckpointResume,
    Phase::MaintainRepair,
    Phase::AnswerScan,
];

// Indexes into `Acc::layers`, in `LAYERS` order.
const DISPATCH: usize = 0;
const CODEC: usize = 1;
const MATERIALIZE: usize = 2;
const REGISTRY: usize = 3;
const SESSION_SELF: usize = 4;
const CLASSIFY: usize = 5;
const DERIVE: usize = 6;
const NESTED: usize = 7;
const REPAIR: usize = 8;
const SCAN: usize = 9;
const PLAN_COMPILE: usize = 10;

/// The layers self time is reported for, in table order.
const LAYERS: [&str; 11] = [
    "server.dispatch",
    "db.codec_parse",
    "db.materialize",
    "registry",
    "session.self",
    "session.classify",
    "datalog.derive",
    "datalog.stratum_eval+index_build",
    "datalog.maintain_repair",
    "datalog.answer_scan",
    "datalog.plan_compile",
];

fn phase_sums() -> [u64; cqa_obs::SPAN_COUNT] {
    cqa_obs::ALL_SPANS.map(|s| cqa_obs::span_snapshot(s).sum)
}

struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; returns its result and the span's id.
    fn span<T>(
        &mut self,
        cmd: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let value = f();
        let end = self.now();
        let id = self.spans.len();
        self.spans.push(SpanRec {
            cmd,
            id,
            parent,
            name,
            start_ns: Some(start),
            dur_ns: end - start,
        });
        (value, id)
    }

    fn dur(&self, id: usize) -> u64 {
        self.spans[id].dur_ns
    }
}

/// What the in-process replay of one trace produced.
pub struct Replayed {
    pub outcomes: Vec<Outcome>,
    pub ledger: Ledger,
    /// Per-layer metrics (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The span file (JSON lines) and the self-time table.
    pub spans_jsonl: String,
    pub summary: String,
}

/// Per-command accounting the metrics and the self-time table are built from.
#[derive(Default, Clone)]
struct Acc {
    n: usize,
    total_ns: u64,
    layers: [u64; LAYERS.len()],
    /// The command's spans (they are recorded contiguously).
    spans: std::ops::Range<usize>,
}

pub fn replay(trace: &Trace) -> Replayed {
    cqa_obs::set_trace(cqa_obs::Trace::On);
    let registry = TenantRegistry::new(trace.spec.limits());
    let session = CertaintySession::with_options(NlBackend::Datalog, EvalOptions::sequential());
    // Routes come from the syntactic classification, not `session.route`,
    // which would prepare (and cache) every plan before the first command.
    let routes: Vec<ComplexityClass> = trace.queries.iter().map(|q| classify(q).class).collect();
    let payloads: Vec<(String, Vec<String>)> = trace
        .tenants
        .iter()
        .map(|t| {
            let body = |frame: &[u8]| -> String {
                let start = frame.iter().position(|&b| b == b'\n').expect("framed") + 1;
                String::from_utf8(frame[start..].to_vec()).expect("UTF-8 payload")
            };
            (
                body(&t.load_frame),
                t.append_frames.iter().map(|f| body(f)).collect(),
            )
        })
        .collect();

    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let run = |rec: &mut Recorder, cmds: &[Cmd], ids: usize| -> (Vec<Outcome>, Vec<Acc>) {
        let mut outcomes = Vec::with_capacity(cmds.len());
        let mut accs = Vec::with_capacity(cmds.len());
        for (i, cmd) in cmds.iter().enumerate() {
            let id = ids + i;
            let mut acc = Acc {
                n: 1,
                ..Acc::default()
            };
            let root_start = rec.now();
            let root = rec.spans.len();
            rec.spans.push(SpanRec {
                cmd: id,
                id: root,
                parent: None,
                name: "command",
                start_ns: Some(root_start),
                dur_ns: 0,
            });
            let outcome = match cmd.op {
                Op::Load { tenant } => {
                    let name = &trace.tenants[tenant].name;
                    let (family, s) = rec.span(id, Some(root), "db.codec_parse", || {
                        cqa_db::codec::family_from_text(&payloads[tenant].0)
                    });
                    acc.layers[CODEC] += rec.dur(s);
                    match family {
                        Ok(family) => {
                            let (loaded, s) = rec.span(id, Some(root), "registry.load", || {
                                registry.load(name, family)
                            });
                            acc.layers[REGISTRY] += rec.dur(s);
                            if loaded.evicted.len() == cmd.evicts {
                                Outcome::Done
                            } else {
                                Outcome::Failed(format!(
                                    "LRU model predicted {} evictions, registry made {}",
                                    cmd.evicts,
                                    loaded.evicted.len()
                                ))
                            }
                        }
                        Err(e) => Outcome::Failed(e.to_string()),
                    }
                }
                Op::Append { tenant, mutation } | Op::Retract { tenant, mutation } => {
                    let name = &trace.tenants[tenant].name;
                    let request = trace.tenants[tenant].mutations[mutation].0;
                    let (facts, s) = rec.span(id, Some(root), "db.codec_parse", || {
                        cqa_db::codec::from_text(&payloads[tenant].1[mutation])
                    });
                    acc.layers[CODEC] += rec.dur(s);
                    let facts = facts.expect("rendered mutation parses");
                    let append = matches!(cmd.op, Op::Append { .. });
                    let (mutated, s) = rec.span(id, Some(root), "registry.mutate", || {
                        registry.mutate_delta(name, request, |delta| {
                            if append {
                                delta.union(&facts)
                            } else {
                                DatabaseInstance::from_facts(
                                    delta
                                        .facts()
                                        .iter()
                                        .copied()
                                        .filter(|fact| !facts.contains(fact)),
                                )
                            }
                        })
                    });
                    acc.layers[REGISTRY] += rec.dur(s);
                    match mutated {
                        Ok(n) if n == trace.delta_facts_after(cmd.op) => Outcome::Done,
                        other => Outcome::Failed(format!("mutate_delta returned {other:?}")),
                    }
                }
                Op::Query { tenant, word } => {
                    let name = &trace.tenants[tenant].name;
                    let text = &trace.words[word];
                    let (query, _) = rec.span(id, Some(root), "server.parse_query", || {
                        PathQuery::parse(text)
                    });
                    let query = query.expect("valid word");
                    let (data, s) = rec.span(id, Some(root), "registry.get", || registry.get(name));
                    acc.layers[REGISTRY] += rec.dur(s);
                    match data {
                        None => Outcome::Failed(format!("{name} not resident")),
                        Some(data) => {
                            let requests: Vec<usize> = (0..data.family.len()).collect();
                            let before = phase_sums();
                            let ((answers, derived), s) =
                                rec.span(id, Some(root), "session.answer", || {
                                    session.certain_batch_family_resident_counted(
                                        &query,
                                        &data.family,
                                        &data.base,
                                        &requests,
                                    )
                                });
                            let session_ns = rec.dur(s);
                            let after = phase_sums();
                            let delta = |p: Phase| after[p as usize] - before[p as usize];
                            for phase in cqa_obs::ALL_SPANS {
                                if delta(phase) > 0 {
                                    rec.spans.push(SpanRec {
                                        cmd: id,
                                        id: rec.spans.len(),
                                        parent: Some(s),
                                        name: phase_name(phase),
                                        start_ns: None,
                                        dur_ns: delta(phase),
                                    });
                                }
                            }
                            let materialize_ns = if routes[word] == ComplexityClass::NlComplete {
                                0
                            } else {
                                let (_, m) = rec.span(id, Some(root), "db.materialize", || {
                                    for i in &requests {
                                        std::hint::black_box(data.family.materialize(*i));
                                    }
                                });
                                rec.dur(m)
                            };
                            let outer: u64 = OUTER_PHASES.iter().map(|&p| delta(p)).sum();
                            let nested = delta(Phase::StratumEval) + delta(Phase::IndexBuild);
                            let derive =
                                delta(Phase::ScratchDerive) + delta(Phase::CheckpointResume);
                            acc.layers[MATERIALIZE] += materialize_ns;
                            acc.layers[SESSION_SELF] += session_ns
                                .saturating_sub(outer)
                                .saturating_sub(materialize_ns);
                            acc.layers[CLASSIFY] +=
                                delta(Phase::Classify).saturating_sub(delta(Phase::PlanCompile));
                            acc.layers[DERIVE] += derive.saturating_sub(nested);
                            acc.layers[NESTED] += nested;
                            acc.layers[REPAIR] += delta(Phase::MaintainRepair);
                            acc.layers[SCAN] += delta(Phase::AnswerScan);
                            acc.layers[PLAN_COMPILE] += delta(Phase::PlanCompile);
                            let (_, s) =
                                rec.span(id, Some(root), "registry.record_derived", || {
                                    registry.record_derived(name, derived, session_ns)
                                });
                            acc.layers[REGISTRY] += rec.dur(s);
                            match answers.into_iter().collect::<Result<Vec<bool>, _>>() {
                                Ok(bits) => Outcome::Answers(bits),
                                Err(e) => Outcome::Failed(e.to_string()),
                            }
                        }
                    }
                }
            };
            let root_ns = rec.now() - root_start;
            rec.spans[root].dur_ns = root_ns;
            // The separate materialization call is the replay's own probe,
            // not part of what the server does for the command.
            let root_ns = root_ns - acc.layers[MATERIALIZE];
            acc.spans = root..rec.spans.len();
            acc.total_ns = root_ns;
            let below: u64 = acc.layers[CODEC..].iter().sum();
            acc.layers[DISPATCH] = root_ns.saturating_sub(below);
            outcomes.push(outcome);
            accs.push(acc);
        }
        (outcomes, accs)
    };

    run(&mut rec, &trace.warmup, 0);
    let stats0 = (registry.stats(), session.stats());
    let (outcomes, accs) = run(&mut rec, &trace.timed, trace.warmup.len());
    let (reg1, ses1) = (registry.stats(), session.stats());
    let (reg0, ses0) = stats0;

    let mut ledger = Ledger::new();
    ledger.insert("loads", reg1.loads - reg0.loads);
    ledger.insert("evictions", reg1.evictions - reg0.evictions);
    ledger.insert(
        "tuples_derived",
        ses1.demand.tuples_derived - ses0.demand.tuples_derived,
    );
    ledger.insert(
        "maintained_hits",
        ses1.demand.maintained_hits - ses0.demand.maintained_hits,
    );
    ledger.insert(
        "tuples_overdeleted",
        ses1.demand.tuples_overdeleted - ses0.demand.tuples_overdeleted,
    );
    ledger.insert(
        "tuples_rederived",
        ses1.demand.tuples_rederived - ses0.demand.tuples_rederived,
    );
    ledger.insert("resident_facts", reg1.resident_facts as u64);
    ledger.insert("answer_digest", check::answer_digest(&outcomes));

    // Per-layer metrics over the timed commands.
    let cmds = &trace.timed;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mean_of = |pick: &dyn Fn(usize, &Cmd) -> Option<f64>| -> f64 {
        let values: Vec<f64> = cmds
            .iter()
            .enumerate()
            .filter_map(|(i, c)| pick(i, c))
            .collect();
        if values.is_empty() {
            0.0
        } else {
            check::mean(&values)
        }
    };
    let span_of = |i: usize, name: &str| -> u64 {
        rec.spans[accs[i].spans.clone()]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    };
    let is_load = |c: &Cmd| matches!(c.op, Op::Load { .. });
    let is_mutate = |c: &Cmd| matches!(c.op, Op::Append { .. } | Op::Retract { .. });
    let query_route = |c: &Cmd| match c.op {
        Op::Query { word, .. } => Some(routes[word]),
        _ => None,
    };
    let is_nl = |c: &Cmd| query_route(c) == Some(ComplexityClass::NlComplete);
    let materializing = |c: &Cmd| query_route(c).is_some_and(|r| r != ComplexityClass::NlComplete);
    let by_route = |route: ComplexityClass| {
        mean_of(&|i, c| (query_route(c) == Some(route)).then(|| ms(span_of(i, "session.answer"))))
    };
    let nl_class = |class: Class| {
        mean_of(&|i, c| (is_nl(c) && c.class == class).then(|| ms(span_of(i, "session.answer"))))
    };
    let queries = cmds
        .iter()
        .filter(|c| query_route(c).is_some())
        .count()
        .max(1) as f64;
    let phase_total = |phase: Phase| -> f64 {
        let name = phase_name(phase);
        let base = trace.warmup.len();
        ms(rec
            .spans
            .iter()
            .filter(|s| s.cmd >= base && s.name == name)
            .map(|s| s.dur_ns)
            .sum())
            / queries
    };
    let requests = trace.tenants[0].family.len() as f64;
    let maintained_tuples: u64 = trace
        .resident_at_end
        .iter()
        .filter_map(|&t| registry.tenant_stats(&trace.tenants[t].name))
        .map(|s| s.maintained_tuples)
        .sum();
    let nl_decided = (ses1.routes.nl_datalog - ses0.routes.nl_datalog).max(1) as f64;
    let d = |a: u64, b: u64| (a - b) as f64;
    let metrics = vec![
        (
            "db.codec_parse_ms",
            mean_of(&|i, c| is_load(c).then(|| ms(span_of(i, "db.codec_parse")))),
            "ms",
        ),
        (
            "db.load_payload_kib",
            mean_of(&|_, c| match c.op {
                Op::Load { tenant } => Some(payloads[tenant].0.len() as f64 / 1024.0),
                _ => None,
            }),
            "KiB",
        ),
        (
            "db.materialize_ms",
            mean_of(&|i, c| materializing(c).then(|| ms(span_of(i, "db.materialize")) / requests)),
            "ms",
        ),
        (
            "registry.load_ms",
            mean_of(&|i, c| is_load(c).then(|| ms(span_of(i, "registry.load")))),
            "ms",
        ),
        (
            "registry.mutate_us",
            mean_of(&|i, c| is_mutate(c).then(|| ms(span_of(i, "registry.mutate")) * 1e3)),
            "us",
        ),
        (
            "registry.get_us",
            mean_of(&|i, c| {
                query_route(c)
                    .is_some()
                    .then(|| ms(span_of(i, "registry.get")) * 1e3)
            }),
            "us",
        ),
        ("registry.loads", d(reg1.loads, reg0.loads), "count"),
        (
            "registry.evictions",
            d(reg1.evictions, reg0.evictions),
            "count",
        ),
        (
            "registry.maintained_tuples",
            maintained_tuples as f64,
            "count",
        ),
        (
            "session.answer_ms.nl_datalog.warm",
            nl_class(Class::Query),
            "ms",
        ),
        (
            "session.answer_ms.nl_datalog.requery",
            nl_class(Class::Requery),
            "ms",
        ),
        (
            "session.answer_ms.nl_datalog.cold",
            nl_class(Class::Cold),
            "ms",
        ),
        ("session.answer_ms.fo", by_route(ComplexityClass::FO), "ms"),
        (
            "session.answer_ms.ptime",
            by_route(ComplexityClass::PtimeComplete),
            "ms",
        ),
        (
            "session.answer_ms.conp",
            by_route(ComplexityClass::CoNpComplete),
            "ms",
        ),
        (
            "session.self_ms.cold",
            mean_of(&|i, c| {
                (is_nl(c) && c.class == Class::Cold).then(|| ms(accs[i].layers[SESSION_SELF]))
            }),
            "ms",
        ),
        ("session.plan_misses", ses1.cache_misses as f64, "count"),
        (
            "datalog.scratch_derive_ms",
            phase_total(Phase::ScratchDerive),
            "ms",
        ),
        (
            "datalog.checkpoint_resume_ms",
            phase_total(Phase::CheckpointResume),
            "ms",
        ),
        (
            "datalog.maintain_repair_ms",
            phase_total(Phase::MaintainRepair),
            "ms",
        ),
        (
            "datalog.answer_scan_ms",
            phase_total(Phase::AnswerScan),
            "ms",
        ),
        (
            "datalog.stratum_eval_ms",
            phase_total(Phase::StratumEval),
            "ms",
        ),
        (
            "datalog.index_build_ms",
            phase_total(Phase::IndexBuild),
            "ms",
        ),
        (
            "datalog.plan_compile_ms",
            phase_total(Phase::PlanCompile),
            "ms",
        ),
        (
            "datalog.tuples_derived",
            d(ses1.demand.tuples_derived, ses0.demand.tuples_derived),
            "count",
        ),
        (
            "datalog.maintained_hits",
            d(ses1.demand.maintained_hits, ses0.demand.maintained_hits),
            "count",
        ),
        (
            "datalog.tuples_overdeleted",
            d(
                ses1.demand.tuples_overdeleted,
                ses0.demand.tuples_overdeleted,
            ),
            "count",
        ),
        (
            "datalog.tuples_rederived",
            d(ses1.demand.tuples_rederived, ses0.demand.tuples_rederived),
            "count",
        ),
        (
            "datalog.checkpoint_hits",
            d(ses1.demand.checkpoint_hits, ses0.demand.checkpoint_hits),
            "count",
        ),
        (
            "datalog.kernel_invocations",
            d(
                ses1.demand.kernel_invocations,
                ses0.demand.kernel_invocations,
            ),
            "count",
        ),
        (
            "datalog.base_index_builds",
            d(reg1.base_index_builds, reg0.base_index_builds),
            "count",
        ),
        (
            "datalog.maintain_hit_ratio",
            d(ses1.demand.maintained_hits, ses0.demand.maintained_hits) / nl_decided,
            "ratio",
        ),
    ];

    let mut spans_jsonl = String::new();
    for s in &rec.spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let start = s.start_ns.map_or("null".to_owned(), |t| t.to_string());
        let end = s
            .start_ns
            .map_or("null".to_owned(), |t| (t + s.dur_ns).to_string());
        let _ = writeln!(
            spans_jsonl,
            "{{\"cmd\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{start},\"end_ns\":{end},\"dur_ns\":{}}}",
            s.cmd, s.id, s.name, s.dur_ns
        );
    }
    let summary = self_time_table(trace, &accs);
    Replayed {
        outcomes,
        ledger,
        metrics,
        spans_jsonl,
        summary,
    }
}

fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::StratumEval => "datalog.stratum_eval",
        Phase::IndexBuild => "datalog.index_build",
        Phase::PlanCompile => "datalog.plan_compile",
        Phase::Classify => "session.classify",
        Phase::ScratchDerive => "datalog.scratch_derive",
        Phase::CheckpointResume => "datalog.checkpoint_resume",
        Phase::MaintainRepair => "datalog.maintain_repair",
        Phase::AnswerScan => "datalog.answer_scan",
    }
}

/// Mean self time per command and share of the command's time, per layer,
/// for each command class and for the NL/non-NL split of queries.
fn self_time_table(trace: &Trace, accs: &[Acc]) -> String {
    let mut groups: BTreeMap<String, Acc> = BTreeMap::new();
    for (cmd, acc) in trace.timed.iter().zip(accs) {
        let route = match cmd.op {
            Op::Query { word, .. } => format!("/{}", trace.words[word]),
            _ => String::new(),
        };
        for key in [
            cmd.class.as_str().to_owned(),
            format!("{}{route}", cmd.class.as_str()),
        ] {
            let group = groups.entry(key).or_default();
            group.n += 1;
            group.total_ns += acc.total_ns;
            for (g, a) in group.layers.iter_mut().zip(&acc.layers) {
                *g += a;
            }
        }
    }
    let mut out =
        String::from("self time per layer: mean ms per command (share of command time)\n");
    for (key, g) in &groups {
        let per = |ns: u64| ns as f64 / 1e6 / g.n as f64;
        let _ = writeln!(out, "{key}: n={} total={:.4}ms", g.n, per(g.total_ns));
        let mut order: Vec<usize> = (0..LAYERS.len()).collect();
        order.sort_by_key(|&l| std::cmp::Reverse(g.layers[l]));
        for l in order.into_iter().filter(|&l| g.layers[l] > 0) {
            let _ = writeln!(
                out,
                "  {:<36} {:>10.4}ms {:>6.1}%",
                LAYERS[l],
                per(g.layers[l]),
                100.0 * g.layers[l] as f64 / g.total_ns.max(1) as f64
            );
        }
    }
    out
}
