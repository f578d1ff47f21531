//! `perfbench`: a deterministic single-connection serving benchmark over
//! the `cqa-server` daemon. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench serve <max_tenants> <max_facts>      (the server child)
//! ```
//!
//! The last line on stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Percentiles, sample counts and the
//! layer tables go to stderr and to `perfbench/out/`.

mod check;
mod replay;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use check::Ledger;
use wire::{Conn, Outcome, Server};
use workload::{Class, Op, Spec, Trace};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest samples a reported latency class may have.
const MIN_SAMPLES: usize = 100;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let spec = workload::spec(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        spec,
        seed: num("--seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A server with the workload loaded and warmed, and the time that took.
struct Live {
    trace: Trace,
    server: Server,
    conn: Conn,
    warmup: Vec<Outcome>,
    /// The counts after the warm-up; every set-up of a run must repeat them.
    warm_ledger: Ledger,
    setup_s: f64,
}

type Stats = BTreeMap<String, u64>;

/// The counts between two `STATS` replies, `resident_facts` at the second,
/// and the digest of the answers in between.
fn ledger(stats0: &Stats, stats1: &Stats, outcomes: &[Outcome]) -> Ledger {
    let stat = |stats: &Stats, k: &str| stats.get(k).copied().unwrap_or(0);
    let mut ledger = Ledger::new();
    for key in check::STATS_DELTAS {
        ledger.insert(key, stat(stats1, key) - stat(stats0, key));
    }
    ledger.insert("resident_facts", stat(stats1, "resident_facts"));
    ledger.insert("answer_digest", check::answer_digest(outcomes));
    ledger
}

/// Problems for every ledger that differs from the first.
fn compare_ledgers(what: &str, ledgers: &[&Ledger], problems: &mut Vec<String>) {
    for (i, ledger) in ledgers.iter().enumerate().skip(1) {
        if ledger != &ledgers[0] {
            problems.push(format!(
                "{what} {i} counts differ from {what} 0:\n{}vs\n{}",
                check::render(ledger),
                check::render(ledgers[0])
            ));
        }
    }
}

/// Family generation, server start, initial `LOAD`s and the warm-up pass.
fn set_up(args: &Args, trace_on: bool) -> Result<Live, String> {
    let start = Instant::now();
    let trace = Trace::generate(args.spec, args.seed, args.seconds);
    let server = Server::spawn(args.spec.limits(), trace_on)?;
    let mut conn = Conn::connect(&server.addr)?;
    let warmup: Vec<Outcome> = wire::replay(&mut conn, &trace, &trace.warmup)?
        .into_iter()
        .map(|(outcome, _)| outcome)
        .collect();
    let setup_s = start.elapsed().as_secs_f64();
    let warm_ledger = ledger(&Stats::new(), &conn.stats(None)?, &warmup);
    Ok(Live {
        trace,
        server,
        conn,
        warmup,
        warm_ledger,
        setup_s,
    })
}

/// One timed wire replay and the scrapes around it.
struct WireRun {
    outcomes: Vec<Outcome>,
    rtt_ns: Vec<u64>,
    wall_s: f64,
    ledger: Ledger,
    /// Resident facts over the resident tenants' loaded facts, at the end.
    tuples_per_fact: f64,
    peak_rss_mb: f64,
    metrics_before: String,
    metrics_after: String,
}

fn timed(live: &mut Live) -> Result<WireRun, String> {
    let stats0 = live.conn.stats(None)?;
    let metrics_before = live.conn.metrics()?;
    let start = Instant::now();
    let replies = wire::replay(&mut live.conn, &live.trace, &live.trace.timed)?;
    let wall_s = start.elapsed().as_secs_f64();
    let metrics_after = live.conn.metrics()?;
    let stats1 = live.conn.stats(None)?;
    let mut loaded_facts = 0u64;
    for &t in &live.trace.resident_at_end {
        let name = &live.trace.tenants[t].name;
        loaded_facts += live
            .conn
            .stats(Some(name))?
            .get("facts")
            .copied()
            .unwrap_or(0);
    }
    let peak_rss_mb = live.server.peak_rss_mb()?;
    let (outcomes, rtt_ns): (Vec<Outcome>, Vec<u64>) = replies.into_iter().unzip();
    let ledger = ledger(&stats0, &stats1, &outcomes);
    Ok(WireRun {
        tuples_per_fact: ledger["resident_facts"] as f64 / loaded_facts.max(1) as f64,
        outcomes,
        rtt_ns,
        wall_s,
        ledger,
        peak_rss_mb,
        metrics_before,
        metrics_after,
    })
}

/// Round-trip times of one latency class, ascending, in milliseconds.
fn class_ms(trace: &Trace, run: &WireRun, classes: &[Class]) -> Vec<f64> {
    let mut ms: Vec<f64> = trace
        .timed
        .iter()
        .zip(&run.rtt_ns)
        .filter(|(c, _)| classes.contains(&c.class))
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// What a run reports: the result line's fields, and the problems that make
/// it incorrect.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, String)>,
    problems: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Correctness of one wire run: oracle check of every reply, and the counts
/// against the ones earlier runs of this build, workload, seed and length
/// recorded.
fn verify(args: &Args, trace: &Trace, warmup: &[Outcome], run: &WireRun, report: &mut Report) {
    let (warm_failed, warm_first) = check::verify(trace, &trace.warmup, warmup);
    let (failed, first) = check::verify(trace, &trace.timed, &run.outcomes);
    report.attempted += trace.warmup.len() + trace.timed.len();
    report.failed += warm_failed + failed;
    report.problems.extend(warm_first.into_iter().chain(first));
    let checked = check::build_digest().and_then(|build| {
        let ledger_path = out_dir().join("ledger").join(format!(
            "{}-{}-{:016x}-{build:016x}.txt",
            args.spec.name,
            args.seed,
            trace.digest()
        ));
        check::against_earlier_runs(&ledger_path, &run.ledger)
    });
    if let Err(e) = checked {
        report.problems.push(e);
    }
    eprintln!("counts: {}", check::render(&run.ledger).replace('\n', " "));
}

fn end_to_end(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm_ledgers = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        // The previous set-up's server stops before the next one is timed.
        drop(live.take());
        let next = set_up(args, false)?;
        setups.push(next.setup_s);
        warm_ledgers.push(next.warm_ledger.clone());
        live = Some(next);
    }
    let mut live = live.expect("at least one set-up");
    let run = timed(&mut live)?;
    let Live {
        trace,
        server,
        conn,
        warmup,
        ..
    } = live;
    drop(conn);
    drop(server);
    let mut report = Report::default();
    let trace = &trace;
    let mut summary = format!(
        "{} seed={} seconds={}: {} timed commands in {:.3}s; set-ups {:?}s\n",
        args.spec.name,
        args.seed,
        args.seconds,
        trace.timed.len(),
        run.wall_s,
        setups
    );
    let mut add = |name: &str, value: f64, unit: &str| {
        report
            .metrics
            .push((name.to_owned(), value, unit.to_owned()));
    };
    add("setup_s", check::median(&setups), "s");
    add(
        "commands_per_s",
        trace.timed.len() as f64 / run.wall_s,
        "1/s",
    );
    let mut short = Vec::new();
    for (prefix, classes, percentiles) in [
        ("query", &[Class::Query][..], &[50.0, 90.0][..]),
        ("requery", &[Class::Requery], &[50.0, 90.0]),
        ("mutate", &[Class::Mutate], &[50.0]),
        ("load", &[Class::Load], &[50.0]),
        ("cold_query", &[Class::Cold], &[50.0, 90.0]),
    ] {
        let ms = class_ms(trace, &run, classes);
        if ms.len() < MIN_SAMPLES {
            short.push(format!("{prefix}: {} samples", ms.len()));
            continue;
        }
        for &p in percentiles {
            let value = check::percentile(&ms, p);
            let _ = writeln!(summary, "  {prefix}_p{p} = {value:.4} ms (n={})", ms.len());
            add(&format!("{prefix}_p{p}_ms"), value, "ms");
        }
    }
    let other = class_ms(trace, &run, &[Class::ColdOther]);
    if !other.is_empty() {
        let _ = writeln!(
            summary,
            "  cold_other_p50 = {:.4} ms (n={}, not reported as a metric)",
            check::percentile(&other, 50.0),
            other.len()
        );
    }
    add("resident_tuples_per_fact", run.tuples_per_fact, "ratio");
    add("server_peak_rss_mb", run.peak_rss_mb, "MiB");
    verify(args, trace, &warmup, &run, &mut report);
    let warm: Vec<&Ledger> = warm_ledgers.iter().collect();
    compare_ledgers("set-up", &warm, &mut report.problems);
    eprint!("{summary}");
    if !short.is_empty() {
        return Err(format!(
            "latency classes below {MIN_SAMPLES} samples: {}",
            short.join(", ")
        ));
    }
    Ok(report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        wire::serve(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(report) => {
            for problem in &report.problems {
                eprintln!("perfbench: {problem}");
            }
            println!("{}", report.json());
            std::process::exit(if report.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Mean of a histogram family's growth over the timed window, in µs.
fn window_mean_us(run: &WireRun, family: &str, kinds: &[&str]) -> f64 {
    let (mut sum, mut count) = (0.0, 0.0);
    for kind in kinds {
        let label = format!("command=\"{kind}\"");
        let (s0, c0) = wire::histogram(&run.metrics_before, family, &label);
        let (s1, c1) = wire::histogram(&run.metrics_after, family, &label);
        sum += s1 - s0;
        count += c1 - c0;
    }
    sum / count.max(1.0) / 1e3
}

/// Mean client round trip of one command kind over the timed window, in µs.
fn rtt_mean_us(trace: &Trace, run: &WireRun, kind: &str) -> f64 {
    let rtts: Vec<f64> = trace
        .timed
        .iter()
        .zip(&run.rtt_ns)
        .filter(|(c, _)| op_kind(c.op) == kind)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    check::mean(&rtts)
}

fn op_kind(op: Op) -> &'static str {
    match op {
        Op::Load { .. } => "load",
        Op::Query { .. } => "query",
        Op::Append { .. } => "append",
        Op::Retract { .. } => "retract",
    }
}

fn per_layer(args: &Args) -> Result<Report, String> {
    // The untraced wire run gives the server-side decomposition and the
    // reference rate; the traced one only its rate, for the overhead.
    let mut live = set_up(args, false)?;
    let run = timed(&mut live)?;
    let Live {
        trace,
        server,
        conn,
        warmup,
        warm_ledger,
        ..
    } = live;
    drop(conn);
    drop(server);
    let (traced, traced_warm_ledger) = {
        let mut live = set_up(args, true)?;
        (timed(&mut live)?, live.warm_ledger)
    };
    let replayed = replay::replay(&trace);

    let mut report = Report::default();
    verify(args, &trace, &warmup, &run, &mut report);
    compare_ledgers(
        "set-up",
        &[&warm_ledger, &traced_warm_ledger],
        &mut report.problems,
    );
    // Run 0 is the untraced wire run, 1 the traced one, 2 the replay.
    compare_ledgers(
        "run",
        &[&run.ledger, &traced.ledger, &replayed.ledger],
        &mut report.problems,
    );
    if let Some(Outcome::Failed(e)) = replayed
        .outcomes
        .iter()
        .find(|o| matches!(o, Outcome::Failed(_)))
    {
        report.problems.push(format!("in-process replay: {e}"));
    }

    let cps = |r: &WireRun| trace.timed.len() as f64 / r.wall_s;
    let kinds = ["query", "append", "retract", "load"];
    let mut decomposition = String::from(
        "wire decomposition (untraced run, timed window, mean us per command):\n\
         kind     rtt      command  client   queue    service\n",
    );
    for kind in kinds {
        let rtt = rtt_mean_us(&trace, &run, kind);
        let command = window_mean_us(&run, "cqa_server_command_ns", &[kind]);
        let queue = window_mean_us(&run, "cqa_server_queue_wait_ns", &[kind]);
        let service = window_mean_us(&run, "cqa_server_service_ns", &[kind]);
        let _ = writeln!(
            decomposition,
            "{kind:<8} {rtt:<8.1} {command:<8.1} {:<8.1} {queue:<8.1} {service:<8.1}",
            rtt - command
        );
    }
    let overhead_pct = 100.0 * (cps(&run) - cps(&traced)) / cps(&run);
    let _ = writeln!(
        decomposition,
        "commands_per_s untraced={:.1} traced={:.1} overhead={overhead_pct:.2}%",
        cps(&run),
        cps(&traced)
    );

    let mut add = |name: &str, value: f64, unit: &str| {
        report
            .metrics
            .push((name.to_owned(), value, unit.to_owned()));
    };
    add(
        "wire.rtt_overhead_us.query",
        rtt_mean_us(&trace, &run, "query")
            - window_mean_us(&run, "cqa_server_command_ns", &["query"]),
        "us",
    );
    add(
        "server.queue_wait_us",
        window_mean_us(&run, "cqa_server_queue_wait_ns", &kinds),
        "us",
    );
    for kind in kinds {
        let name = format!("server.service_us.{kind}");
        add(
            &name,
            window_mean_us(&run, "cqa_server_service_ns", &[kind]),
            "us",
        );
    }
    for (name, value, unit) in &replayed.metrics {
        add(name, *value, unit);
    }
    add("obs.trace_overhead_pct", overhead_pct, "%");

    let dir = out_dir().join(format!("{}-{}", args.spec.name, args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |file: &str, text: &str| {
        std::fs::write(dir.join(file), text).map_err(|e| format!("{file}: {e}"))
    };
    write("spans.jsonl", &replayed.spans_jsonl)?;
    let layers = format!("{decomposition}\n{}", replayed.summary);
    write("layers.txt", &layers)?;
    eprint!("{layers}");
    eprintln!("spans and layer tables written to {}", dir.display());
    Ok(report)
}
