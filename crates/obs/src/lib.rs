//! Lock-free observability primitives for the CQA workspace.
//!
//! Everything here is built for an always-on recorder on the serving hot
//! path: recording into a [`Counter`], [`Gauge`] or [`Histogram`] is a
//! handful of relaxed atomic adds — no locks, no allocation, no syscalls.
//! The only lock in the crate guards [`Registry`] registration and
//! rendering, which happen at startup and on `METRICS` scrapes, never per
//! request.
//!
//! Two layers of cost:
//!
//! * **Always-on** — counters, gauges and coarse phase histograms that the
//!   server records unconditionally. Budgeted at <2% of serving throughput;
//!   perfbench's `--trace 1` run reports the span layer's cost on top of it
//!   as `obs.trace_overhead_pct`.
//! * **Trace spans** — fine-grained phase histograms ([`Span`]) behind the
//!   `PATH_CQA_TRACE` knob (`auto`/`on` = record, `off`/`0` = skip). The
//!   knob follows the workspace `Auto|Off|On` convention but resolves into
//!   an atomic rather than a `OnceLock`, so [`set_trace`] can flip it at
//!   runtime — the bench harness uses that to measure trace overhead from
//!   inside one process.
//!
//! Histograms use fixed log2 buckets over nanoseconds: bucket `i` counts
//! durations in `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0 and 1 ns), and
//! the top bucket saturates — anything at or above `2^39` ns (~9 minutes)
//! lands there. Fixed buckets keep recording allocation-free and make the
//! Prometheus rendering a pure read of the atomics.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Number of log2 buckets per histogram. Bucket `BUCKETS - 1` is the
/// saturating top bucket (everything `>= 2^(BUCKETS-1)` ns).
pub const BUCKETS: usize = 40;

/// The bucket a duration of `ns` nanoseconds falls into: `floor(log2(ns))`
/// clamped to the table, with 0 and 1 ns sharing bucket 0.
pub fn bucket_index(ns: u64) -> usize {
    if ns < 2 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Exclusive upper bound of bucket `i` in nanoseconds, or `None` for the
/// saturating top bucket (rendered as `le="+Inf"`).
pub fn bucket_upper(i: usize) -> Option<u64> {
    if i + 1 < BUCKETS {
        Some(1u64 << (i + 1))
    } else {
        None
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, resident count).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2-nanosecond latency histogram. Recording is three
/// relaxed `fetch_add`s; readers see a consistent-enough snapshot for
/// monitoring (counts never decrease, `count` is bumped last so
/// `sum(buckets) >= count` can transiently be off by in-flight records —
/// quiescent readers always see `sum(buckets) == count`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of a histogram's atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub sum: u64,
    pub count: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one duration in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// A started wall-clock timer. `Instant` on Linux is a vDSO
/// `clock_gettime(CLOCK_MONOTONIC)` — cheap enough for per-request use.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds, saturated into `u64` (584 years).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

// ---------------------------------------------------------------------------
// Registry: named metric families rendered in Prometheus text exposition.
// ---------------------------------------------------------------------------

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    /// Pre-rendered label pairs, e.g. `command="query"` — empty for an
    /// unlabelled series.
    labels: String,
    metric: Metric,
}

struct Family {
    name: &'static str,
    help: &'static str,
    series: Vec<Series>,
}

/// An instantiable collection of metric families. Each server instance owns
/// its own registry, so counters genuinely reset when a server is restarted
/// (including in-process restarts under test) rather than living for the
/// whole process.
///
/// Registration is idempotent: asking for an existing `(name, labels)`
/// series returns the same handle, so construction code can re-run safely.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T>(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
        get: impl Fn(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let rendered = render_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(Family {
                    name,
                    help,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| s.labels == rendered) {
            return get(&series.metric)
                .unwrap_or_else(|| panic!("metric {name} re-registered with a different type"));
        }
        let metric = make();
        let handle = get(&metric).expect("constructor and accessor agree");
        family.series.push(Series {
            labels: rendered,
            metric,
        });
        handle
    }

    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        self.register(
            name,
            help,
            labels,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        self.register(
            name,
            help,
            labels,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.register(
            name,
            help,
            labels,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Adopt an existing histogram handle into a family, so metrics owned by
    /// lower layers (e.g. a solver session's per-route timers) render
    /// through the same registry as everything else. Idempotent like the
    /// constructors: if the `(name, labels)` series already exists, the
    /// registered handle wins and is returned.
    pub fn register_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        histogram: Arc<Histogram>,
    ) -> Arc<Histogram> {
        self.register(
            name,
            help,
            labels,
            || Metric::Histogram(histogram),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Pre-register a histogram series for every value of a label, returning
    /// the handles in value order — used for per-route / per-command tables
    /// indexed by a dense enum.
    pub fn histogram_vec(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        values: &[&'static str],
    ) -> Vec<Arc<Histogram>> {
        values
            .iter()
            .map(|v| self.histogram(name, help, &[(label, v)]))
            .collect()
    }

    /// Same as [`Registry::histogram_vec`] for counters.
    pub fn counter_vec(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        values: &[&'static str],
    ) -> Vec<Arc<Counter>> {
        values
            .iter()
            .map(|v| self.counter(name, help, &[(label, v)]))
            .collect()
    }

    /// Render every family in Prometheus text exposition format. Holds only
    /// the registry's own lock — callers on the serving path must make sure
    /// this is never nested inside a hot lock (the server scrapes from
    /// reader threads, outside the work-queue mutex).
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for family in families.iter() {
            let type_name = family
                .series
                .first()
                .map(|s| s.metric.type_name())
                .unwrap_or("untyped");
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!("# TYPE {} {}\n", family.name, type_name));
            for series in &family.series {
                match &series.metric {
                    Metric::Counter(c) => {
                        render_scalar(&mut out, family.name, &series.labels, c.get())
                    }
                    Metric::Gauge(g) => {
                        render_scalar(&mut out, family.name, &series.labels, g.get())
                    }
                    Metric::Histogram(h) => {
                        render_histogram(&mut out, family.name, &series.labels, &h.snapshot())
                    }
                }
            }
        }
        out
    }
}

fn render_scalar<T: std::fmt::Display>(out: &mut String, name: &str, labels: &str, value: T) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

fn series_name(name: &str, suffix: &str, labels: &str) -> String {
    if labels.is_empty() {
        format!("{name}{suffix}")
    } else {
        format!("{name}{suffix}{{{labels}}}")
    }
}

/// Render one histogram series: cumulative `_bucket` lines up to the last
/// occupied bucket (trailing empty buckets are folded into `+Inf` — the
/// cumulative counts stay correct and the payload stays small), then
/// `_sum` and `_count`.
pub fn render_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let le = |labels: &str, bound: &str| {
        if labels.is_empty() {
            format!("le=\"{bound}\"")
        } else {
            format!("{labels},le=\"{bound}\"")
        }
    };
    let mut cumulative = 0u64;
    let last_occupied = snap
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map(|i| i.min(BUCKETS - 2));
    if let Some(last) = last_occupied {
        for (i, &c) in snap.buckets.iter().enumerate().take(last + 1) {
            cumulative += c;
            let bound = bucket_upper(i)
                .expect("capped below top bucket")
                .to_string();
            out.push_str(&format!(
                "{} {}\n",
                series_name(name, "_bucket", &le(labels, &bound)),
                cumulative
            ));
        }
    }
    out.push_str(&format!(
        "{} {}\n",
        series_name(name, "_bucket", &le(labels, "+Inf")),
        snap.count
    ));
    out.push_str(&format!(
        "{} {}\n",
        series_name(name, "_sum", labels),
        snap.sum
    ));
    out.push_str(&format!(
        "{} {}\n",
        series_name(name, "_count", labels),
        snap.count
    ));
}

// ---------------------------------------------------------------------------
// Trace knob and spans.
// ---------------------------------------------------------------------------

/// The fine-grained span knob, following the workspace `Auto|Off|On`
/// convention (`PATH_CQA_THREADS`, `PATH_CQA_DEMAND`, ...). `Auto` defers to
/// the `PATH_CQA_TRACE` environment variable (`off`/`0` disables; anything
/// else, including unset, enables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    Auto,
    Off,
    On,
}

/// 0 = unresolved (consult the environment), 1 = off, 2 = on. An atomic
/// rather than a `OnceLock` on purpose: the bench harness flips tracing
/// off/on inside one process to measure its overhead.
static TRACE_STATE: AtomicU8 = AtomicU8::new(0);

/// Override (or with [`Trace::Auto`], reset) the span knob at runtime.
pub fn set_trace(trace: Trace) {
    let state = match trace {
        Trace::Auto => 0,
        Trace::Off => 1,
        Trace::On => 2,
    };
    TRACE_STATE.store(state, Ordering::Relaxed);
}

/// Whether fine-grained spans are being recorded. First call in the
/// unresolved state reads `PATH_CQA_TRACE` and caches the verdict.
pub fn trace_enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = !matches!(
                std::env::var("PATH_CQA_TRACE").as_deref(),
                Ok("off") | Ok("0")
            );
            TRACE_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Slow-request threshold from `PATH_CQA_SLOW_MS`: `None` disables the slow
/// log, `Some(0)` logs every request. Read once per process.
pub fn slow_millis() -> Option<u64> {
    static SLOW: OnceLock<Option<u64>> = OnceLock::new();
    *SLOW.get_or_init(|| {
        std::env::var("PATH_CQA_SLOW_MS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
    })
}

/// Fine-grained phases timed under the trace knob. Process-global (a span
/// histogram outlives any one server instance): spans answer "where does
/// time go inside a request", not "what has this server served".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One semi-naive stratum evaluation inside the Datalog engine.
    StratumEval,
    /// Building or extending a committed base index / CSR.
    IndexBuild,
    /// Compiling a CQA program on a plan-cache miss.
    PlanCompile,
    /// Classifying a query word and building route artifacts.
    Classify,
    /// A from-scratch overlay fixpoint (no checkpoint, no maintained IDB).
    ScratchDerive,
    /// An overlay fixpoint resumed from a base checkpoint.
    CheckpointResume,
    /// A differential repair of the maintained IDB.
    MaintainRepair,
    /// Scanning derived falsification witnesses to produce answers.
    AnswerScan,
}

pub const SPAN_COUNT: usize = 8;

pub const ALL_SPANS: [Span; SPAN_COUNT] = [
    Span::StratumEval,
    Span::IndexBuild,
    Span::PlanCompile,
    Span::Classify,
    Span::ScratchDerive,
    Span::CheckpointResume,
    Span::MaintainRepair,
    Span::AnswerScan,
];

impl Span {
    pub fn as_str(self) -> &'static str {
        match self {
            Span::StratumEval => "stratum_eval",
            Span::IndexBuild => "index_build",
            Span::PlanCompile => "plan_compile",
            Span::Classify => "classify",
            Span::ScratchDerive => "scratch_derive",
            Span::CheckpointResume => "checkpoint_resume",
            Span::MaintainRepair => "maintain_repair",
            Span::AnswerScan => "answer_scan",
        }
    }
}

fn span_table() -> &'static [Histogram; SPAN_COUNT] {
    static SPANS: OnceLock<[Histogram; SPAN_COUNT]> = OnceLock::new();
    SPANS.get_or_init(|| std::array::from_fn(|_| Histogram::new()))
}

/// Record a span duration — a no-op (one atomic load) when tracing is off.
pub fn record_span(span: Span, ns: u64) {
    if trace_enabled() {
        span_table()[span as usize].record(ns);
    }
}

pub fn span_snapshot(span: Span) -> HistogramSnapshot {
    span_table()[span as usize].snapshot()
}

/// Append the `cqa_trace_span_ns` family (one series per [`Span`]) to a
/// Prometheus exposition — all-zero when tracing has been off for the whole
/// process.
pub fn render_spans(out: &mut String) {
    out.push_str("# HELP cqa_trace_span_ns Fine-grained phase durations (PATH_CQA_TRACE spans).\n");
    out.push_str("# TYPE cqa_trace_span_ns histogram\n");
    for span in ALL_SPANS {
        let labels = format!("span=\"{}\"", span.as_str());
        render_histogram(out, "cqa_trace_span_ns", &labels, &span_snapshot(span));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 10);
        // Every bucket's exclusive upper bound is the next bucket's floor.
        for i in 0..BUCKETS - 1 {
            let upper = bucket_upper(i).expect("non-top bucket has a bound");
            assert_eq!(bucket_index(upper - 1), i, "upper-1 stays in bucket {i}");
            assert_eq!(
                bucket_index(upper),
                i + 1,
                "upper moves to bucket {}",
                i + 1
            );
        }
        assert_eq!(bucket_upper(BUCKETS - 1), None);
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::new();
        h.record(1u64 << (BUCKETS - 1)); // exactly at the top bucket's floor
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[BUCKETS - 1], 2);
        assert_eq!(snap.count, 2);
        assert!(snap.buckets[..BUCKETS - 1].iter().all(|&c| c == 0));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        // Spread records across many buckets.
                        h.record((i * 7 + t) % 100_000);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("recorder thread");
        }
        let snap = h.snapshot();
        let expected = threads * per_thread;
        assert_eq!(snap.count, expected);
        assert_eq!(snap.buckets.iter().sum::<u64>(), expected);
    }

    #[test]
    fn registry_registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("cqa_test_total", "help", &[("kind", "x")]);
        let b = reg.counter("cqa_test_total", "help", &[("kind", "x")]);
        assert!(Arc::ptr_eq(&a, &b), "same (name, labels) → same handle");
        let c = reg.counter("cqa_test_total", "help", &[("kind", "y")]);
        assert!(!Arc::ptr_eq(&a, &c), "different labels → different series");
    }

    #[test]
    fn render_emits_prometheus_text() {
        let reg = Registry::new();
        let c = reg.counter("cqa_test_events_total", "Total events.", &[]);
        c.add(3);
        let g = reg.gauge("cqa_test_depth", "Current depth.", &[("q", "main")]);
        g.set(7);
        let h = reg.histogram("cqa_test_latency_ns", "Latency.", &[("op", "get")]);
        h.record(5); // bucket 2, le="8"
        let text = reg.render();
        assert!(text.contains("# HELP cqa_test_events_total Total events.\n"));
        assert!(text.contains("# TYPE cqa_test_events_total counter\n"));
        assert!(text.contains("cqa_test_events_total 3\n"));
        assert!(text.contains("cqa_test_depth{q=\"main\"} 7\n"));
        assert!(text.contains("# TYPE cqa_test_latency_ns histogram\n"));
        assert!(text.contains("cqa_test_latency_ns_bucket{op=\"get\",le=\"8\"} 1\n"));
        assert!(text.contains("cqa_test_latency_ns_bucket{op=\"get\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("cqa_test_latency_ns_sum{op=\"get\"} 5\n"));
        assert!(text.contains("cqa_test_latency_ns_count{op=\"get\"} 1\n"));
        // Cumulative buckets: the le="8" line must include the earlier
        // (empty) buckets' counts, i.e. the first bucket lines exist too.
        assert!(text.contains("cqa_test_latency_ns_bucket{op=\"get\",le=\"2\"} 0\n"));
    }

    #[test]
    fn empty_histogram_renders_inf_only() {
        let mut out = String::new();
        render_histogram(&mut out, "cqa_empty_ns", "", &Histogram::new().snapshot());
        assert_eq!(
            out,
            "cqa_empty_ns_bucket{le=\"+Inf\"} 0\ncqa_empty_ns_sum 0\ncqa_empty_ns_count 0\n"
        );
    }

    #[test]
    fn trace_knob_gates_span_recording() {
        set_trace(Trace::Off);
        let before = span_snapshot(Span::PlanCompile).count;
        record_span(Span::PlanCompile, 100);
        assert_eq!(
            span_snapshot(Span::PlanCompile).count,
            before,
            "off = no-op"
        );
        set_trace(Trace::On);
        record_span(Span::PlanCompile, 100);
        assert_eq!(span_snapshot(Span::PlanCompile).count, before + 1);
        let mut rendered = String::new();
        render_spans(&mut rendered);
        assert!(rendered.contains("# TYPE cqa_trace_span_ns histogram"));
        assert!(rendered.contains("cqa_trace_span_ns_count{span=\"plan_compile\"}"));
        set_trace(Trace::Auto);
    }
}
