//! The live-server side: a `cqa-serverd`-equivalent child process (this
//! binary re-executed in `serve` mode, so no second build step and a process
//! whose peak RSS is the server's alone) and one blocking connection that
//! replays pre-rendered frames against it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use cqa_server::proto::parse_reply;
use cqa_server::registry::ResidencyLimits;
use cqa_server::server::{start, ServerConfig};

use crate::workload::{Cmd, Op, Trace};

/// `perfbench serve <max_tenants> <max_facts>`: runs the server with the
/// daemon's defaults otherwise, prints `listening <addr>`, and exits when its
/// stdin closes, so the parent's exit (or crash) always takes it down.
pub fn serve(args: &[String]) -> ! {
    let parse = |i: usize| -> usize {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!("usage: perfbench serve <max_tenants> <max_facts>");
            std::process::exit(2)
        })
    };
    let config = ServerConfig {
        limits: ResidencyLimits {
            max_tenants: parse(0),
            max_facts: parse(1),
        },
        ..ServerConfig::default()
    };
    let handle = start(config).unwrap_or_else(|e| {
        eprintln!("perfbench serve: bind failed: {e}");
        std::process::exit(1)
    });
    println!("listening {}", handle.addr());
    std::io::stdout().flush().expect("stdout");
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    std::process::exit(0)
}

/// A running server child. Dropping it closes the child's stdin and waits
/// for the process to end (killing it if it has not within a few seconds).
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: String,
}

impl Server {
    pub fn spawn(limits: ResidencyLimits, trace_on: bool) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(limits.max_tenants.to_string())
            .arg(limits.max_facts.to_string())
            .env("PATH_CQA_TRACE", if trace_on { "on" } else { "off" })
            .env_remove("PATH_CQA_SLOW_MS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdin = child.stdin.take();
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut banner)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        let mut server = Server {
            child,
            stdin,
            addr: String::new(),
        };
        server.addr = banner
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?
            .to_owned();
        Ok(server)
    }

    /// Peak resident set of the server process (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's /proc status".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One connection: `TCP_NODELAY`, every frame sent with a single write.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one frame and returns the raw reply line (without newline).
    pub fn send(&mut self, frame: &[u8]) -> Result<&str, String> {
        self.writer
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok(self.line.trim_end_matches(['\r', '\n'])),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn payload(&mut self, line: &str) -> Result<String, String> {
        let reply = self.send(format!("{line}\n").as_bytes())?.to_owned();
        parse_reply(&reply).map_err(|e| format!("{line}: {e}"))
    }

    /// `STATS` or `STATS <tenant>` as a key → value map.
    pub fn stats(&mut self, tenant: Option<&str>) -> Result<BTreeMap<String, u64>, String> {
        let line = tenant.map_or("STATS".to_owned(), |t| format!("STATS {t}"));
        let payload = self.payload(&line)?;
        Ok(payload
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| Some((k.to_owned(), v.parse().ok()?)))
            .collect())
    }

    /// The `METRICS` exposition.
    pub fn metrics(&mut self) -> Result<String, String> {
        let payload = self.payload("METRICS")?;
        let n: usize = payload
            .strip_prefix("METRICS ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad METRICS reply {payload:?}"))?;
        let mut body = vec![0u8; n];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("METRICS body: {e}"))?;
        String::from_utf8(body).map_err(|_| "METRICS body is not UTF-8".to_owned())
    }
}

/// What one command's reply said.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `ANSWERS`: one bit per request.
    Answers(Vec<bool>),
    /// `LOADED`/`APPENDED`/`RETRACTED` matching the trace's prediction.
    Done,
    /// An `ERR` reply, an unexpected reply, or a prediction mismatch.
    Failed(String),
}

/// Checks one reply against what the trace predicts for the command.
pub fn outcome(trace: &Trace, cmd: &Cmd, reply: &str) -> Outcome {
    let payload = match parse_reply(reply) {
        Ok(payload) => payload,
        Err(e) => return Outcome::Failed(format!("ERR {e}")),
    };
    let field = |key: &str| -> Option<usize> {
        payload
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    };
    match cmd.op {
        Op::Query { .. } => match payload.strip_prefix("ANSWERS ") {
            Some("-") => Outcome::Answers(Vec::new()),
            Some(bits) if bits.bytes().all(|b| b == b'0' || b == b'1') => {
                Outcome::Answers(bits.bytes().map(|b| b == b'1').collect())
            }
            _ => Outcome::Failed(format!("unexpected reply {payload:?}")),
        },
        Op::Load { .. } if payload.starts_with("LOADED ") => {
            if field("evicted") == Some(cmd.evicts) {
                Outcome::Done
            } else {
                Outcome::Failed(format!(
                    "LRU model predicted evicted={}, server said {payload:?}",
                    cmd.evicts
                ))
            }
        }
        Op::Append { .. } | Op::Retract { .. }
            if payload.starts_with("APPENDED ") || payload.starts_with("RETRACTED ") =>
        {
            let expected = trace.delta_facts_after(cmd.op);
            if field("facts") == Some(expected) {
                Outcome::Done
            } else {
                Outcome::Failed(format!("expected facts={expected}, got {payload:?}"))
            }
        }
        _ => Outcome::Failed(format!("unexpected reply {payload:?}")),
    }
}

/// Replays commands on the connection; returns each command's outcome and
/// round-trip time in nanoseconds.
pub fn replay(conn: &mut Conn, trace: &Trace, cmds: &[Cmd]) -> Result<Vec<(Outcome, u64)>, String> {
    let mut out = Vec::with_capacity(cmds.len());
    for cmd in cmds {
        let frame = trace.frame(cmd.op);
        let start = Instant::now();
        let reply = conn.send(frame)?;
        let rtt = start.elapsed().as_nanos() as u64;
        out.push((outcome(trace, cmd, reply), rtt));
    }
    Ok(out)
}

/// `_sum` and `_count` of one labelled histogram series in an exposition.
pub fn histogram(exposition: &str, family: &str, label: &str) -> (f64, f64) {
    let mut sum = 0.0;
    let mut count = 0.0;
    for line in exposition.lines() {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: f64 = value.parse().unwrap_or(0.0);
        if series == format!("{family}_sum{{{label}}}") {
            sum = value;
        } else if series == format!("{family}_count{{{label}}}") {
            count = value;
        }
    }
    (sum, count)
}
