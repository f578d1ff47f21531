//! The serving loop: a TCP listener whose per-connection reader threads
//! feed one shared work queue, drained by parked worker threads that answer
//! through a warm [`CertaintySession`] against the registry's resident
//! bases.
//!
//! Concurrency shape (one level of parallelism at a time, like the rest of
//! the workspace): connections are cheap reader threads that block on the
//! socket, parse one command, enqueue it and wait for its reply — so one
//! slow tenant never wedges the listener. The `workers` threads park on a
//! condvar, pop commands in arrival order and run the solver with
//! `EvalOptions::sequential()` (no batch fan-out); cross-request parallelism
//! comes from having several workers, not from nesting thread scopes. Replies travel back on a
//! per-command channel, which keeps each connection's request/reply order
//! trivially correct.
//!
//! Backpressure and observability: the work queue is bounded
//! ([`ServerConfig::max_queue`]) — readers *reject* with a typed `ERR busy`
//! instead of enqueueing past the cap, so overload degrades to fast,
//! retryable refusals rather than unbounded memory and latency. `STATS` and
//! `METRICS` are answered inline on the reader thread from atomic snapshots
//! (never queued behind derivations, never formatting under the work-queue
//! lock), so the observability plane stays responsive exactly when the
//! serving plane is saturated. Every command is timed (queue wait, worker
//! service, whole wire turnaround — see [`crate::metrics`]), and requests
//! slower than `PATH_CQA_SLOW_MS` get a one-line phase breakdown on stderr.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use cqa_core::query::PathQuery;
use cqa_datalog::parallel::EvalOptions;
use cqa_db::instance::DatabaseInstance;
use cqa_solver::nl_solver::NlBackend;
use cqa_solver::session::CertaintySession;

use crate::metrics::ServerMetrics;
use crate::proto::{
    parse_command, Command, CommandKind, ErrorCode, Reply, WireError, MAX_COMMAND_LINE,
};
use crate::registry::{MutateError, ResidencyLimits, TenantRegistry};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Worker threads draining the shared queue.
    pub workers: usize,
    /// Residency caps for the tenant registry.
    pub limits: ResidencyLimits,
    /// Bound on the shared work queue. Readers reject commands with a typed
    /// `ERR busy` instead of enqueueing past this — the client can retry,
    /// and a burst can no longer grow server memory and queue latency
    /// without limit. The default is generous: it exists to cap pathology,
    /// not to shape normal traffic.
    pub max_queue: usize,
    /// Honor the `CRASH` and `SLOW` commands (panic / stall the handling
    /// worker). Off by default; the loopback robustness and backpressure
    /// tests turn it on.
    pub fault_injection: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            limits: ResidencyLimits::default(),
            max_queue: 1024,
            fault_injection: false,
        }
    }
}

/// One queued command and the channel its reply goes back on.
struct Job {
    command: Command,
    /// `LOAD`'s length-framed family text, already read off the socket.
    payload: Option<String>,
    /// The command's metric label (computed before `command` is consumed).
    kind: CommandKind,
    /// When the reader pushed the job — queue wait is measured from here.
    enqueued: Instant,
    reply: mpsc::Sender<Reply>,
}

/// State shared by the listener, connections and workers.
struct Shared {
    registry: TenantRegistry,
    session: CertaintySession,
    metrics: ServerMetrics,
    queue: Mutex<VecDeque<Job>>,
    max_queue: usize,
    available: Condvar,
    stop: AtomicBool,
    fault_injection: bool,
}

impl Shared {
    /// Locks the work queue, recovering from poisoning. The queue's only
    /// invariant is "a deque of jobs" — there is no partial state a panic
    /// could leave behind — so a poisoned lock must not wedge every
    /// connection and worker for good.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running server: join handles plus the shared state, with explicit
/// [`ServerHandle::shutdown`] (also run on drop).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks the calling thread until the listener exits (it never does on
    /// its own, so this is the daemon's "run forever").
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Stops accepting, drains the workers and joins every thread the
    /// server owns. Connections still open see their socket close.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.shared.available.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers drain every job enqueued before the stop flag, and readers
        // refuse to enqueue after it — but clear stragglers anyway (dropping
        // a job's reply sender unblocks its reader with the typed shutdown
        // error) so no connection can hang on a logic change above.
        self.shared.lock_queue().clear();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Starts a server: binds the address, spawns the worker pool and the
/// accept loop, and returns immediately.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // One warm session serves every tenant: per-query artifacts
    // (classification, compiled CQA programs, automata) are shared
    // across tenants by construction — they depend only on the query.
    // Batches stay on the worker thread; parallelism is across commands.
    let session = CertaintySession::with_options(NlBackend::Datalog, EvalOptions::sequential());
    let max_queue = config.max_queue.max(1);
    let metrics = ServerMetrics::new(max_queue, &session);
    let shared = Arc::new(Shared {
        registry: TenantRegistry::new(config.limits),
        session,
        metrics,
        queue: Mutex::new(VecDeque::new()),
        max_queue,
        available: Condvar::new(),
        stop: AtomicBool::new(false),
        fault_injection: config.fault_injection,
    });
    let workers = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Readers are detached: they exit when their client disconnects or
        // when the worker pool shuts down under them (reply channel closes).
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &shared);
        });
    }
}

/// Reads commands off one connection, routes them through the shared queue
/// and writes each reply before reading the next command — per-connection
/// ordering is the socket's own.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    // Replies are small single-line frames written as one `write_all`; with
    // Nagle's algorithm on, each request/reply turn would stall up to ~40ms
    // against the peer's delayed ACK — disable it, this is a low-latency
    // RPC socket, not a bulk stream.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let send = |writer: &mut TcpStream, reply: &Reply| -> std::io::Result<()> {
        let mut frame = reply.render();
        frame.push('\n');
        // `METRICS` is the one multi-line reply: the header line carries the
        // byte length and the text follows in the same single write, so the
        // frame cannot interleave and the client's next `read_line` starts
        // exactly past it.
        if let Reply::Metrics(text) = reply {
            frame.push_str(text);
        }
        writer.write_all(frame.as_bytes())
    };
    loop {
        line.clear();
        // Cap the command line so a client streaming newline-free bytes
        // cannot grow the buffer without bound.
        let n = (&mut reader)
            .take(MAX_COMMAND_LINE as u64 + 1)
            .read_line(&mut line)?;
        if n == 0 {
            return Ok(()); // client disconnected
        }
        if n > MAX_COMMAND_LINE {
            // Framing is lost (the rest of the overlong line would parse as
            // commands): report and close.
            let err = WireError::new(
                ErrorCode::BadCommand,
                format!("command line exceeds {MAX_COMMAND_LINE} bytes"),
            );
            return send(&mut writer, &Reply::Err(err));
        }
        let command = match parse_command(line.trim_end_matches(['\r', '\n'])) {
            Ok(command) => command,
            Err(err) => {
                send(&mut writer, &Reply::Err(err))?;
                // A malformed payload-carrying line (LOAD/APPEND/RETRACT)
                // may be followed by a payload whose length we never
                // learned — framing cannot be trusted, so close. Any other
                // malformed line leaves the connection usable.
                let verb = line.trim_start();
                if ["LOAD", "APPEND", "RETRACT"]
                    .iter()
                    .any(|v| verb.starts_with(v))
                {
                    return Ok(());
                }
                continue;
            }
        };
        // Wire turnaround is measured from a successfully parsed command
        // line to its reply hitting the socket — payload read, queue wait
        // and service included.
        let kind = command.kind();
        let turnaround = cqa_obs::Stopwatch::start();
        shared.metrics.count_command(kind);
        let payload = match &command {
            Command::Load { bytes, .. }
            | Command::Append { bytes, .. }
            | Command::Retract { bytes, .. } => {
                // Read exactly `bytes` of payload *before* any further
                // validation, so a rejected command never leaves payload
                // bytes in the stream to be parsed as commands. Read in
                // chunks so memory grows only as payload data actually
                // arrives (a 20-byte header must not pin 64 MiB).
                let mut buf = Vec::with_capacity((*bytes).min(64 << 10));
                let mut remaining = *bytes;
                while remaining > 0 {
                    let chunk = remaining.min(64 << 10);
                    let start = buf.len();
                    buf.resize(start + chunk, 0);
                    reader.read_exact(&mut buf[start..])?;
                    remaining -= chunk;
                }
                match String::from_utf8(buf) {
                    Ok(text) => Some(text),
                    Err(_) => {
                        let err = WireError::new(ErrorCode::BadPayload, "payload is not UTF-8");
                        send(&mut writer, &Reply::Err(err))?;
                        continue;
                    }
                }
            }
            _ => None,
        };
        if matches!(command, Command::Quit) {
            send(&mut writer, &Reply::Bye)?;
            shared.metrics.record_command(kind, turnaround.elapsed_ns());
            return Ok(());
        }
        // The observability plane never queues behind the serving plane:
        // STATS and METRICS are answered right here on the reader thread
        // from atomic snapshots (per-connection ordering still holds — the
        // reader is serial). A wedged or saturated worker pool therefore
        // cannot block the commands that diagnose it.
        if matches!(command, Command::Stats { .. } | Command::Metrics) {
            let reply = execute_readonly(shared, command);
            send(&mut writer, &reply)?;
            shared.metrics.record_command(kind, turnaround.elapsed_ns());
            continue;
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = shared.lock_queue();
            if shared.stop.load(Ordering::SeqCst) {
                // The worker pool is (or is about to be) gone; nothing will
                // ever pop this job.
                drop(queue);
                let err = WireError::new(ErrorCode::Solver, "server shutting down");
                return send(&mut writer, &Reply::Err(err));
            }
            if queue.len() >= shared.max_queue {
                // Bounded queue: reject *before* enqueueing. The command had
                // no effect, so the client can safely retry — and the
                // connection stays fully usable.
                drop(queue);
                shared.metrics.busy_total.inc();
                let err = WireError::new(
                    ErrorCode::Busy,
                    format!("work queue full ({} jobs queued)", shared.max_queue),
                );
                send(&mut writer, &Reply::Err(err))?;
                shared.metrics.record_command(kind, turnaround.elapsed_ns());
                continue;
            }
            queue.push_back(Job {
                command,
                payload,
                kind,
                enqueued: Instant::now(),
                reply: tx,
            });
            shared.metrics.queue_depth.set(queue.len() as i64);
        }
        shared.available.notify_one();
        // Wait for the worker's reply, but never past a shutdown: workers
        // drain every job enqueued before the stop flag, so the periodic
        // stop check only fires for jobs abandoned by a dying pool — reply
        // with the typed error and close.
        let reply = loop {
            match rx.recv_timeout(std::time::Duration::from_millis(200)) {
                Ok(reply) => break reply,
                Err(mpsc::RecvTimeoutError::Timeout) if !shared.stop.load(Ordering::SeqCst) => {}
                Err(_) => {
                    let err = WireError::new(ErrorCode::Solver, "server shut down");
                    return send(&mut writer, &Reply::Err(err));
                }
            }
        };
        send(&mut writer, &reply)?;
        shared.metrics.record_command(kind, turnaround.elapsed_ns());
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.metrics.queue_depth.set(queue.len() as i64);
                    break job;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let kind = job.kind;
        let queue_wait_ns = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.metrics.record_queue_wait(kind, queue_wait_ns);
        // The slow log attributes the request; grab the label before the
        // command is consumed by execution.
        let tenant = job.command.tenant().map(str::to_owned);
        let service = cqa_obs::Stopwatch::start();
        // A panic below this line must not kill the worker (the pool never
        // respawns) or poison shared state: catch it at the dispatch
        // boundary, report it as a typed error, and keep draining the
        // queue. The registry and queue locks both recover from poisoning,
        // so a panic mid-command degrades to one failed request.
        let reply = std::panic::catch_unwind(AssertUnwindSafe(|| {
            execute(shared, job.command, job.payload)
        }))
        .unwrap_or_else(|panic| {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            Reply::Err(WireError::new(
                ErrorCode::Internal,
                format!("worker panicked: {detail}"),
            ))
        });
        let service_ns = service.elapsed_ns();
        shared.metrics.record_service(kind, service_ns);
        if let Some(threshold_ms) = cqa_obs::slow_millis() {
            let total_ns = queue_wait_ns.saturating_add(service_ns);
            if total_ns >= threshold_ms.saturating_mul(1_000_000) {
                shared.metrics.slow_total.inc();
                eprintln!(
                    "slow-request command={} tenant={} queue_ms={:.1} service_ms={:.1} total_ms={:.1} threshold_ms={}",
                    kind.as_str(),
                    tenant.as_deref().unwrap_or("-"),
                    queue_wait_ns as f64 / 1e6,
                    service_ns as f64 / 1e6,
                    total_ns as f64 / 1e6,
                    threshold_ms,
                );
            }
        }
        // A send failure just means the connection went away mid-command.
        let _ = job.reply.send(reply);
    }
}

/// Executes the inline (reader-thread) commands: `STATS` and `METRICS`.
/// Everything here reads atomic counters or takes short, private locks (the
/// registry's map lock, the metrics registry's render lock) — never the
/// work-queue lock, and never a derivation.
fn execute_readonly(shared: &Shared, command: Command) -> Reply {
    match command {
        Command::Metrics => {
            let registry = shared.registry.stats();
            shared.metrics.residents.set(registry.residents as i64);
            shared
                .metrics
                .resident_facts
                .set(registry.resident_facts as i64);
            Reply::Metrics(shared.metrics.render())
        }
        other => execute(shared, other, None),
    }
}

/// Executes one command against the registry and session. Every failure is
/// a typed [`Reply::Err`]; this function never panics on client input.
fn execute(shared: &Shared, command: Command, payload: Option<String>) -> Reply {
    match command {
        Command::Load { tenant, .. } => {
            let text = payload.unwrap_or_default();
            match cqa_db::codec::family_from_text(&text) {
                Ok(family) => {
                    let outcome = shared.registry.load(&tenant, family);
                    Reply::Loaded {
                        tenant,
                        requests: outcome.requests,
                        prefix_facts: outcome.prefix_facts,
                        evicted: outcome.evicted.len(),
                    }
                }
                Err(e) => Reply::Err(WireError::new(ErrorCode::BadPayload, e.to_string())),
            }
        }
        Command::Append {
            tenant, request, ..
        } => {
            let text = payload.unwrap_or_default();
            match cqa_db::codec::from_text(&text) {
                Ok(additions) => {
                    let mutated = shared
                        .registry
                        .mutate_delta(&tenant, request, |delta| delta.union(&additions));
                    match mutated {
                        Ok(facts) => Reply::Appended {
                            tenant,
                            request,
                            facts,
                        },
                        Err(e) => mutate_error(&tenant, request, e),
                    }
                }
                Err(e) => Reply::Err(WireError::new(ErrorCode::BadPayload, e.to_string())),
            }
        }
        Command::Retract {
            tenant, request, ..
        } => {
            let text = payload.unwrap_or_default();
            match cqa_db::codec::from_text(&text) {
                Ok(removals) => {
                    let mutated = shared.registry.mutate_delta(&tenant, request, |delta| {
                        // The instance API is append-only (fact ids are
                        // stable), so retraction rebuilds the delta without
                        // the removed facts. Deltas are O(request) small.
                        DatabaseInstance::from_facts(
                            delta
                                .facts()
                                .iter()
                                .copied()
                                .filter(|fact| !removals.contains(fact)),
                        )
                    });
                    match mutated {
                        Ok(facts) => Reply::Retracted {
                            tenant,
                            request,
                            facts,
                        },
                        Err(e) => mutate_error(&tenant, request, e),
                    }
                }
                Err(e) => Reply::Err(WireError::new(ErrorCode::BadPayload, e.to_string())),
            }
        }
        Command::Query { tenant, word } => answer(shared, &tenant, &word, None),
        Command::Batch {
            tenant,
            requests,
            word,
        } => answer(shared, &tenant, &word, Some(requests)),
        Command::Stats { tenant: None } => {
            let registry = shared.registry.stats();
            let session = shared.session.stats();
            let pair = |k: &str, v: String| (k.to_owned(), v);
            Reply::Stats(vec![
                pair("residents", registry.residents.to_string()),
                pair("resident_facts", registry.resident_facts.to_string()),
                pair("loads", registry.loads.to_string()),
                pair("evictions", registry.evictions.to_string()),
                pair("tenant_hits", registry.hits.to_string()),
                pair("tenant_misses", registry.misses.to_string()),
                pair("base_index_builds", registry.base_index_builds.to_string()),
                pair("plan_hits", session.cache_hits.to_string()),
                pair("plan_misses", session.cache_misses.to_string()),
                pair("queries_prepared", session.queries_prepared.to_string()),
                pair("requests_decided", session.routes.total().to_string()),
                pair("route_fo", session.routes.fo_rewriting.to_string()),
                pair("route_nl_direct", session.routes.nl_direct.to_string()),
                pair("route_nl_datalog", session.routes.nl_datalog.to_string()),
                pair("route_ptime", session.routes.ptime_fixpoint.to_string()),
                pair("route_conp", session.routes.conp_sat.to_string()),
                pair("rules_pruned", session.demand.rules_pruned.to_string()),
                pair(
                    "predicates_pruned",
                    session.demand.predicates_pruned.to_string(),
                ),
                pair("tuples_derived", session.demand.tuples_derived.to_string()),
                pair("kernel_rules", session.demand.kernel_rules.to_string()),
                pair("generic_rules", session.demand.generic_rules.to_string()),
                pair(
                    "kernel_invocations",
                    session.demand.kernel_invocations.to_string(),
                ),
                pair(
                    "checkpoint_hits",
                    session.demand.checkpoint_hits.to_string(),
                ),
                pair(
                    "maintained_hits",
                    session.demand.maintained_hits.to_string(),
                ),
                pair(
                    "tuples_overdeleted",
                    session.demand.tuples_overdeleted.to_string(),
                ),
                pair(
                    "tuples_rederived",
                    session.demand.tuples_rederived.to_string(),
                ),
            ])
        }
        Command::Stats {
            tenant: Some(tenant),
        } => match shared.registry.tenant_stats(&tenant) {
            Some(stats) => {
                let pair = |k: &str, v: String| (k.to_owned(), v);
                Reply::Stats(vec![
                    pair("tenant", stats.tenant),
                    pair("requests", stats.requests.to_string()),
                    pair("prefix_facts", stats.prefix_facts.to_string()),
                    pair("facts", stats.facts.to_string()),
                    pair("base_index_builds", stats.base_index_builds.to_string()),
                    pair("served", stats.served.to_string()),
                    pair("tuples_derived", stats.tuples_derived.to_string()),
                    pair("derive_ns", stats.derive_ns.to_string()),
                    pair("maintained_tuples", stats.maintained_tuples.to_string()),
                ])
            }
            None => Reply::Err(WireError::new(
                ErrorCode::NotLoaded,
                format!("tenant {tenant:?} is not resident"),
            )),
        },
        Command::Evict { tenant } => {
            if shared.registry.evict(&tenant) {
                Reply::Evicted { tenant }
            } else {
                Reply::Err(WireError::new(
                    ErrorCode::NotLoaded,
                    format!("tenant {tenant:?} is not resident"),
                ))
            }
        }
        // QUIT and METRICS are handled on the connection; a queued one is a
        // logic error upstream, not a client-visible state.
        Command::Quit => Reply::Bye,
        Command::Metrics => execute_readonly(shared, Command::Metrics),
        Command::Crash => {
            if shared.fault_injection {
                // Deliberate: the loopback robustness tests use this to
                // prove the dispatch boundary contains worker panics.
                panic!("CRASH requested by client (fault injection enabled)");
            }
            Reply::Err(WireError::new(
                ErrorCode::BadCommand,
                "CRASH requires fault injection to be enabled server-side",
            ))
        }
        Command::Slow { millis } => {
            if shared.fault_injection {
                // Deliberate: the backpressure tests park this worker to
                // saturate a tiny bounded queue deterministically.
                std::thread::sleep(std::time::Duration::from_millis(millis));
                Reply::Slept { millis }
            } else {
                Reply::Err(WireError::new(
                    ErrorCode::BadCommand,
                    "SLOW requires fault injection to be enabled server-side",
                ))
            }
        }
    }
}

/// Renders a registry mutation failure as the matching wire error (the same
/// codes `QUERY`/`BATCH` use for the same conditions).
fn mutate_error(tenant: &str, request: usize, e: MutateError) -> Reply {
    match e {
        MutateError::NotResident => Reply::Err(WireError::new(
            ErrorCode::NotLoaded,
            format!("tenant {tenant:?} is not resident"),
        )),
        MutateError::BadRequest { requests } => Reply::Err(WireError::new(
            ErrorCode::BadRequestId,
            format!(
                "request id {request} out of range for tenant {tenant:?} ({requests} requests)"
            ),
        )),
    }
}

/// Serves `QUERY` (all requests) or `BATCH` (an explicit subset) against a
/// resident tenant through the warm session and the tenant's resident base.
fn answer(shared: &Shared, tenant: &str, word: &str, subset: Option<Vec<usize>>) -> Reply {
    // Validate the query before touching the registry: a rejected command
    // must not bump the tenant's LRU recency or served/hit counters.
    // Serving policy: the wire speaks the paper's single-letter word syntax,
    // so a query word is a nonempty ASCII-alphanumeric string (this also
    // keeps arbitrary client bytes out of the interned symbol tables).
    if word.is_empty() || !word.chars().all(|c| c.is_ascii_alphanumeric()) {
        return Reply::Err(WireError::new(
            ErrorCode::BadQuery,
            format!("query word {word:?} must be ASCII alphanumeric"),
        ));
    }
    let query = match PathQuery::parse(word) {
        Ok(query) => query,
        Err(e) => {
            return Reply::Err(WireError::new(
                ErrorCode::BadQuery,
                format!("bad query word {word:?}: {e}"),
            ))
        }
    };
    let Some(data) = shared.registry.get(tenant) else {
        return Reply::Err(WireError::new(
            ErrorCode::NotLoaded,
            format!("tenant {tenant:?} is not resident"),
        ));
    };
    let requests: Vec<usize> = match subset {
        Some(ids) => {
            if let Some(&bad) = ids.iter().find(|&&id| id >= data.family.len()) {
                return Reply::Err(WireError::new(
                    ErrorCode::BadRequestId,
                    format!(
                        "request id {bad} out of range for tenant {tenant:?} ({} requests)",
                        data.family.len()
                    ),
                ));
            }
            ids
        }
        None => (0..data.family.len()).collect(),
    };
    let derive = cqa_obs::Stopwatch::start();
    let (answers, derived) = shared.session.certain_batch_family_resident_counted(
        &query,
        &data.family,
        &data.base,
        &requests,
    );
    shared
        .registry
        .record_derived(tenant, derived, derive.elapsed_ns());
    let mut bits = Vec::with_capacity(answers.len());
    for (slot, result) in answers.into_iter().enumerate() {
        match result {
            Ok(bit) => bits.push(bit),
            Err(e) => {
                return Reply::Err(WireError::new(
                    ErrorCode::Solver,
                    format!("request {} failed: {e}", requests[slot]),
                ))
            }
        }
    }
    Reply::Answers(bits)
}
